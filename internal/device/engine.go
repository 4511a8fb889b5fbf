package device

import (
	"errors"

	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// ErrEngineDown reports a job submitted to a failed engine. The fault
// subsystem marks engines down (SetDown); callers are expected to
// check first and fall back, so hitting this error means a routing
// bug, not a modeled condition.
var ErrEngineDown = errors.New("device: engine is down")

// Engine models one SmartDS hardware engine: a fixed-function unit that
// fetches input from device memory, processes it at a fixed rate, and
// writes results back (the simple I/O contract of paper §4.1). One
// engine processes one job at a time (further jobs queue FIFO), like
// the pipelined-but-single-stream FPGA engines in the prototype.
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

// Name returns the engine name.
func (e *Engine) Name() string { return e.name }

// SetTrace attaches a tracer; every Run records one occupancy span
// (queue wait + compute + memory movement) on the engine's own track.
func (e *Engine) SetTrace(tr *trace.Tracer) { e.tr = tr }

// Rate returns the engine's processing rate in bytes/second.
func (e *Engine) Rate() float64 { return e.rate }

// Processed returns total input bytes processed.
func (e *Engine) Processed() float64 { return e.bytes }

// Utilization returns cumulative busy statistics of the engine slot.
func (e *Engine) Utilization() sim.ResourceStats { return e.slot.Snapshot() }

// QueueLen reports jobs waiting for the engine (the §2.2.1 adaptive
// compression-effort policy watches this).
func (e *Engine) QueueLen() int { return e.slot.QueueLen() }

// SetDown fails (true) or restores (false) the engine. A down engine
// rejects Compress/Decompress with ErrEngineDown.
func (e *Engine) SetDown(down bool) { e.down = down }

// Down reports whether the engine is failed.
func (e *Engine) Down() bool { return e.down }

// Run charges the timing of one engine invocation: fetch inBytes from
// device memory, process at the engine rate, write outBytes back. The
// caller performs the functional transformation.
//
// The engine is pipelined: memory movement overlaps computation, so
// the slot (the pipeline's initiation interval) is held only for the
// compute time — this is what lets the prototype's engines sustain
// 100 Gbps on back-to-back 4 KB blocks. The call still returns only
// after the result bytes have landed in device memory.
func (e *Engine) Run(p *sim.Proc, inBytes, outBytes float64) {
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
}

// LZ4Engine is the compression engine SmartDS instantiates per port: a
// functional LZ4 codec (this repository's from-scratch implementation)
// wrapped in engine timing. The FPGA engine in the paper sustains
// 100 Gbps on 4 KB blocks regardless of compression level — effort
// changes ratio, not engine throughput — which the model mirrors.
type LZ4Engine struct {
	*Engine
	codec *lz4.Lookahead
}

// NewLZ4Engine creates a compression engine.
func NewLZ4Engine(env *sim.Env, name string, mem *Memory, bytesPerSec float64, maxBlock int) *LZ4Engine {
	return &LZ4Engine{
		Engine: NewEngine(env, name, mem, bytesPerSec),
		codec:  lz4.NewLookahead(maxBlock),
	}
}

// Job charges one compression whose functional result the caller
// produced: inBytes read and outBytes written, timed as Compress times
// them. A down engine rejects it with ErrEngineDown.
func (e *LZ4Engine) Job(p *sim.Proc, inBytes, outBytes float64) error {
	if e.down {
		return ErrEngineDown
	}
	e.Run(p, inBytes, outBytes)
	return nil
}

// Compress functionally compresses src (device-memory resident bytes)
// into dst, which must hold lz4.CompressBound(len(src)) bytes, and
// charges engine timing. It returns the compressed size.
func (e *LZ4Engine) Compress(p *sim.Proc, dst, src []byte, level lz4.Level) (int, error) {
	if e.down {
		return 0, ErrEngineDown
	}
	n, err := e.codec.Compress(dst, src, level)
	if err != nil {
		return 0, err
	}
	return n, e.Job(p, float64(len(src)), float64(n))
}

// Decompress functionally decompresses src into a buffer of origSize
// and charges engine timing (decompression runs at the same engine
// rate; it is not the bottleneck in any experiment).
func (e *LZ4Engine) Decompress(p *sim.Proc, src []byte, origSize int) ([]byte, error) {
	if e.down {
		return nil, ErrEngineDown
	}
	out, err := lz4.DecompressToBuf(src, origSize)
	if err != nil {
		return nil, err
	}
	e.Run(p, float64(len(src)), float64(origSize))
	return out, nil
}
