package device

import (
	"errors"

	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// ErrEngineDown reports a job submitted to a failed engine. The fault
// subsystem marks engines down (SetDown); callers are expected to
// check first and fall back, so hitting this error means a routing
// bug, not a modeled condition.
var ErrEngineDown = errors.New("device: engine is down")

// Engine models one hardware compression engine (a SmartDS port's LZ4
// engine, or the BF2 SoC's): a fixed-function unit that fetches input
// from device memory, processes it at a fixed rate, and writes results
// back (the simple I/O contract of paper §4.1). One engine processes
// one job at a time (further jobs queue FIFO), like the
// pipelined-but-single-stream FPGA engines in the prototype. The rate
// does not depend on the compression level: effort changes the ratio,
// not the engine's throughput.
type Engine struct {
	env   *sim.Env
	name  string
	rate  float64 // processing bytes/second (input-side)
	slot  *sim.Resource
	mem   *Memory
	bytes float64 // total input bytes processed

	tr    *trace.Tracer
	jobID uint64
	down  bool
}

// NewEngine creates an engine attached to a device memory.
func NewEngine(env *sim.Env, name string, mem *Memory, bytesPerSec float64) *Engine {
	if bytesPerSec <= 0 {
		panic("device: engine rate must be positive")
	}
	return &Engine{
		env:  env,
		name: name,
		rate: bytesPerSec,
		slot: env.NewResource(name+".slot", 1),
		mem:  mem,
	}
}

// SetTrace attaches a tracer; every Run records one occupancy span
// (queue wait + compute + memory movement) on the engine's own track.
func (e *Engine) SetTrace(tr *trace.Tracer) { e.tr = tr }

// Processed returns total input bytes processed.
func (e *Engine) Processed() float64 { return e.bytes }

// Utilization returns cumulative busy statistics of the engine slot.
func (e *Engine) Utilization() sim.ResourceStats { return e.slot.Snapshot() }

// QueueLen reports jobs waiting for the engine (the §2.2.1 adaptive
// compression-effort policy watches this).
func (e *Engine) QueueLen() int { return e.slot.QueueLen() }

// SetDown fails (true) or restores (false) the engine. A down engine
// rejects Job with ErrEngineDown.
func (e *Engine) SetDown(down bool) { e.down = down }

// Down reports whether the engine is failed.
func (e *Engine) Down() bool { return e.down }

// Run charges the timing of one engine invocation whose output size
// the caller knows (a decompression): fetch inBytes from device memory,
// process at the engine rate, write outBytes back.
//
// The engine is pipelined: memory movement overlaps computation, so
// the slot (the pipeline's initiation interval) is held only for the
// compute time — this is what lets the prototype's engines sustain
// 100 Gbps on back-to-back 4 KB blocks. The call still returns only
// after the result bytes have landed in device memory.
func (e *Engine) Run(p *sim.Proc, inBytes, outBytes float64) { e.run(p, inBytes, outBytes, nil) }

// Job charges one compression of inBytes whose output size comes from
// encode, the caller's functional encode. The engine calls it once,
// after the compute time, where it first needs the size to write the
// result back, so the encode runs as late as the timing allows and a
// helper core has had the queue wait and the compute time to encode
// the block ahead. Job returns encode's size. A down engine rejects the
// job with ErrEngineDown and never calls encode.
func (e *Engine) Job(p *sim.Proc, inBytes float64, encode func() float64) (float64, error) {
	if e.down {
		return 0, ErrEngineDown
	}
	return e.run(p, inBytes, 0, encode), nil
}

// run is Run and Job: outBytes is encode's result when encode is set.
func (e *Engine) run(p *sim.Proc, inBytes, outBytes float64, encode func() float64) float64 {
	e.jobID++
	id := e.jobID
	// Head-sampled by job id; at full rate ForRequest is the identity.
	tr := e.tr.ForRequest(id)
	t0 := p.Now()
	tr.Begin(t0, e.name, "job", id)
	e.slot.Acquire(p)
	tq := p.Now()
	inEv := e.mem.StartAccess(inBytes)
	p.Sleep(inBytes / e.rate)
	if encode != nil {
		outBytes = encode()
	}
	outEv := e.mem.StartAccess(outBytes)
	e.bytes += inBytes
	e.slot.Release()
	p.Wait(inEv)
	p.Wait(outEv)
	end := p.Now()
	tr.End(end, e.name, "job", id)
	// Engine occupancy split: queue wait for the pipeline slot vs time
	// the engine was actually moving and processing this job's bytes.
	if tr != nil {
		if tq > t0 {
			tr.Span(t0, tq, e.name, "job.qwait", id, 0, e.name, "job", trace.KindWait, "")
		}
		if end > tq {
			tr.Span(tq, end, e.name, "job.run", id, 0, e.name, "job", trace.KindService, "")
		}
	}
	return outBytes
}
