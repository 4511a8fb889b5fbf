package core

import (
	"fmt"

	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// Instance is one extended RoCE instance: transport stack + Split +
// Assemble modules + a per-port compression engine (paper Figure 6).
type Instance struct {
	dev    *Device
	index  int
	stack  *rdma.Stack
	engine *device.Engine

	// Debug names of the procs this instance spawns per request, built
	// once so the request path formats nothing.
	splitName, assembleName, devfuncName string

	recvQ map[int]*qpRecvState

	// Pooled op records of the split, assemble and devfunc procs.
	freeSplits    []*splitOp
	freeAssembles []*assembleOp
	freeFuncs     []*funcOp
}

// qpRecvState is the Split module's per-QP descriptor table plus the
// buffer of messages that arrived before a descriptor was posted
// (receiver-not-ready, held by the transport in real RoCE).
type qpRecvState struct {
	descs ring[recvDesc]
	msgs  ring[*rdma.Message]
}

type recvDesc struct {
	hbuf  *HostBuf
	hsize int
	dbuf  *device.Buffer
	dsize int
	comp  *Completion
}

// Index returns the instance's port index.
func (in *Instance) Index() int { return in.index }

// Stack exposes the transport (for connection setup).
func (in *Instance) Stack() *rdma.Stack { return in.stack }

// Engine exposes the instance's compression engine.
func (in *Instance) Engine() *device.Engine { return in.engine }

// Device returns the owning card.
func (in *Instance) Device() *Device { return in.dev }

// Completion is the asynchronous event every Table 2 verb returns. It
// carries the verb's Result, written once just before the event fires;
// the event fires with the *Completion itself as its value.
type Completion struct {
	ev  sim.Event
	res Result
}

// Result is the completion value: the verb-specific size (received
// payload bytes, compressed bytes, ...) or an error. For recv
// completions, Placed counts the *real* payload bytes copied into the
// device buffer (zero for modeled-size-only traffic).
type Result struct {
	Size   int
	Placed int
	Err    error
}

// Event exposes the raw event for select-style composition.
func (c *Completion) Event() *sim.Event { return &c.ev }

// Done reports whether the completion fired.
func (c *Completion) Done() bool { return c.ev.Done() }

// Result returns the verb's result. It is the zero Result until the
// completion fires and never changes afterwards.
func (c *Completion) Result() Result { return c.res }

// Poll implements poll(event): block until the verb completes.
func Poll(p *sim.Proc, c *Completion) Result {
	p.Wait(&c.ev)
	return c.res
}

// complete records the result and fires the event with the completion.
func (c *Completion) complete(res Result) {
	c.res = res
	c.ev.Trigger(c)
}

// completionSlab is the chunk size completions are carved in, small
// enough to keep a chunk under the runtime's 32 KiB large-object size.
// A chunk is retained until every completion in it is unreachable;
// completions are short-lived, so retention is bounded by a few chunks.
const completionSlab = 128

// newCompletion carves the verb's completion, its event inline, from
// the device's slab. Like sim events, completions are one-shot and
// never recycled: a caller may hold one, and read its Result, for as
// long as it likes. The slab only amortizes the allocation.
func (in *Instance) newCompletion() *Completion {
	d := in.dev
	if d.compPos == len(d.compSlab) {
		//detcheck:hotalloc slab refill: one allocation per completionSlab completions
		d.compSlab = make([]Completion, completionSlab)
		d.compPos = 0
	}
	c := &d.compSlab[d.compPos]
	d.compPos++
	d.env.InitEvent(&c.ev)
	return c
}

// CreateQP allocates a QP whose receive side feeds the Split module.
func (in *Instance) CreateQP() *rdma.QP {
	qp := in.stack.CreateQP()
	st := &qpRecvState{}
	in.recvQ[qp.ID().QPN] = st
	qp.OnRecv = func(m *rdma.Message) { in.onMessage(st, m) }
	return qp
}

// DevMixedRecv implements dev_mixed_recv: post a recv descriptor whose
// first hsize bytes land in host memory and the remainder in device
// memory. The completion's Size is the payload (device-side) byte
// count.
//
//hot:per-message AAMS verb, pinned by TestAAMSRoundTripAllocs
func (in *Instance) DevMixedRecv(qp *rdma.QP, hbuf *HostBuf, hsize int, dbuf *device.Buffer, dsize int) *Completion {
	st, ok := in.recvQ[qp.ID().QPN]
	if !ok {
		panic("core: DevMixedRecv on a QP not created through this instance")
	}
	if dbuf == nil && dsize > 0 {
		panic("core: recv descriptor with payload bytes but no device buffer")
	}
	if hsize > len(hbuf.data) || (dbuf != nil && dsize > dbuf.Size()) {
		panic("core: recv descriptor larger than its buffers")
	}
	comp := in.newCompletion()
	st.descs.push(recvDesc{hbuf: hbuf, hsize: hsize, dbuf: dbuf, dsize: dsize, comp: comp})
	in.matchRecv(st)
	return comp
}

// onMessage is the Split module's input: an in-order RDMA message.
//
//hot:per-message AAMS input, pinned by TestAAMSRoundTripAllocs
func (in *Instance) onMessage(st *qpRecvState, m *rdma.Message) {
	st.msgs.push(m)
	in.matchRecv(st)
}

// matchRecv pairs queued messages with posted descriptors in FIFO
// order and starts placement for each pair.
func (in *Instance) matchRecv(st *qpRecvState) {
	for st.msgs.n > 0 && st.descs.n > 0 {
		in.place(st.msgs.pop(), st.descs.pop())
	}
}

// splitOp carries one message and its descriptor into a split proc.
type splitOp struct {
	in    *Instance
	m     *rdma.Message
	d     recvDesc
	span  uint64
	runFn func(*sim.Proc)
}

// place starts the split of m into d in a fresh proc.
func (in *Instance) place(m *rdma.Message, d recvDesc) {
	dev := in.dev
	dev.spanSeq++
	var op *splitOp
	if n := len(in.freeSplits); n > 0 {
		op = in.freeSplits[n-1]
		in.freeSplits[n-1] = nil
		in.freeSplits = in.freeSplits[:n-1]
	} else {
		//detcheck:hotalloc pool miss: warmup-only, bounded by the splits started in one instant
		op = &splitOp{in: in}
		op.runFn = op.run
	}
	op.m, op.d, op.span = m, d, dev.spanSeq
	dev.env.Go(in.splitName, op.runFn)
}

// run is the split proc body. It copies the op out and returns it to
// the pool before its first wait.
//
//hot:per-message AAMS split, pinned by TestAAMSRoundTripAllocs
func (op *splitOp) run(p *sim.Proc) {
	o := *op
	*op = splitOp{in: o.in, runFn: o.runFn}
	//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
	o.in.freeSplits = append(o.in.freeSplits, op)
	dev := o.in.dev
	// Head-sampled by span seq; identity at full rate.
	tr := dev.tr.ForRequest(o.span)
	dev.beginSpan(tr, p.Now(), "split", o.span)
	o.d.comp.complete(o.in.split(p, o.m, &o.d))
	dev.endSpan(tr, p.Now(), "split", o.span)
}

// split performs the split: header bytes cross PCIe into host memory,
// payload bytes go to device memory, then the host is notified.
func (in *Instance) split(p *sim.Proc, m *rdma.Message, d *recvDesc) Result {
	dev := in.dev
	total := int(m.Size)
	hdr := min(d.hsize, total)
	payload := total - hdr
	if payload > d.dsize {
		return splitOverflow(payload, d.dsize)
	}
	// Functional placement of whatever real bytes the message
	// carries (modeled traffic materializes only its header).
	placed := 0
	if m.Data != nil {
		copy(d.hbuf.data, m.Data[:min(hdr, len(m.Data))])
		if d.dbuf != nil && len(m.Data) > hdr {
			placed = copy(d.dbuf.Bytes(), m.Data[hdr:])
		}
	}
	// Header -> host via PCIe D2H, landing in host DRAM; payload ->
	// device memory.
	var waits [3]*sim.Event
	n := 0
	if hdr > 0 {
		waits[0] = dev.pcieLink.StartDMA(pcie.D2H, float64(hdr))
		waits[1] = dev.hostMem.StartWrite(float64(hdr))
		n = 2
	}
	if payload > 0 {
		waits[n] = dev.hbm.StartAccess(float64(payload))
		n++
	}
	p.WaitAll(waits[:n]...)
	dev.notifyHost(p)
	return Result{Size: payload, Placed: placed}
}

// splitOverflow is the result of a message too large for its
// descriptor.
//
//cold:malformed traffic; the descriptor is dropped
func splitOverflow(payload, dsize int) Result {
	return Result{Err: fmt.Errorf("core: %d payload bytes exceed device buffer (%d)", payload, dsize)}
}

// beginSpan opens a split or assemble span on a sampled tracer; tr is
// nil when the span is not sampled.
//
//cold:tracing is off on the measured path; sampled spans pay for their records
func (d *Device) beginSpan(tr *trace.Tracer, at float64, name string, span uint64) {
	tr.Begin(at, d.name, name, span)
}

// endSpan closes a span opened by beginSpan.
//
//cold:tracing is off on the measured path; sampled spans pay for their records
func (d *Device) endSpan(tr *trace.Tracer, at float64, name string, span uint64) {
	tr.End(at, d.name, name, span)
}

// notifyHost DMA-writes a completion record to host memory.
func (d *Device) notifyHost(p *sim.Proc) {
	p.Wait(d.pcieLink.StartDMA(pcie.D2H, d.cfg.CompletionBytes))
	d.hostMem.StartWrite(d.cfg.CompletionBytes)
}

// assembleOp carries one send descriptor into an assemble proc.
type assembleOp struct {
	in    *Instance
	qp    *rdma.QP
	hbuf  *HostBuf
	hsize int
	dbuf  *device.Buffer
	dsize int
	comp  *Completion
	span  uint64
	runFn func(*sim.Proc)
}

// DevMixedSend implements dev_mixed_send: gather hsize bytes from host
// memory and dsize bytes from device memory into one RDMA message. The
// completion fires when the transport acknowledges delivery; Size is
// the message size. With no dbuf, dsize bytes of modeled payload are
// timed as gathered but not carried.
//
//hot:per-message AAMS verb, pinned by TestAAMSRoundTripAllocs
func (in *Instance) DevMixedSend(qp *rdma.QP, hbuf *HostBuf, hsize int, dbuf *device.Buffer, dsize int) *Completion {
	if hsize > len(hbuf.data) || (dbuf != nil && dsize > dbuf.Size()) {
		panic("core: send descriptor larger than its buffers")
	}
	comp := in.newCompletion()
	dev := in.dev
	dev.spanSeq++
	var op *assembleOp
	if n := len(in.freeAssembles); n > 0 {
		op = in.freeAssembles[n-1]
		in.freeAssembles[n-1] = nil
		in.freeAssembles = in.freeAssembles[:n-1]
	} else {
		//detcheck:hotalloc pool miss: warmup-only, bounded by the sends posted in one instant
		op = &assembleOp{in: in}
		op.runFn = op.run
	}
	op.qp, op.hbuf, op.hsize, op.dbuf, op.dsize = qp, hbuf, hsize, dbuf, dsize
	op.comp, op.span = comp, dev.spanSeq
	dev.env.Go(in.assembleName, op.runFn)
	return comp
}

// run is the assemble proc body. It copies the op out and returns it to
// the pool before its first wait.
//
//hot:per-message AAMS assemble, pinned by TestAAMSRoundTripAllocs
func (op *assembleOp) run(p *sim.Proc) {
	o := *op
	*op = assembleOp{in: o.in, runFn: o.runFn}
	//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
	o.in.freeAssembles = append(o.in.freeAssembles, op)
	dev := o.in.dev
	// Head-sampled by span seq; identity at full rate.
	tr := dev.tr.ForRequest(o.span)
	dev.beginSpan(tr, p.Now(), "assemble", o.span)
	// Gather both halves in parallel: PCIe H2D for the header,
	// device memory for the payload.
	var waits [3]*sim.Event
	n := 0
	if o.hsize > 0 {
		waits[0] = dev.pcieLink.StartDMA(pcie.H2D, float64(o.hsize))
		waits[1] = dev.hostMem.StartRead(float64(o.hsize))
		n = 2
	}
	if o.dsize > 0 {
		waits[n] = dev.hbm.StartAccess(float64(o.dsize))
		n++
	}
	p.WaitAll(waits[:n]...)
	//detcheck:hotalloc the message bytes outlive the send: the receiver keeps them
	data := make([]byte, o.hsize+o.dsize)
	copy(data, o.hbuf.data[:o.hsize])
	if o.dbuf != nil {
		copy(data[o.hsize:], o.dbuf.Bytes()[:o.dsize])
	} else {
		data = data[:o.hsize] // modeled: the payload is sized, not carried
	}
	v := p.Wait(o.qp.SendSized(data, float64(o.hsize+o.dsize)))
	// Completion record to the host.
	dev.notifyHost(p)
	if err, ok := v.(error); ok && err != nil {
		o.comp.complete(Result{Err: err})
	} else {
		o.comp.complete(Result{Size: o.hsize + o.dsize})
	}
	dev.endSpan(tr, p.Now(), "assemble", o.span)
}

// funcOp carries one engine job into a devfunc proc.
type funcOp struct {
	in      *Instance
	inBytes float64
	encode  func() float64
	comp    *Completion
	runFn   func(*sim.Proc)
}

// DevFunc implements dev_func: compress inBytes of device memory on
// the instance's hardware engine. encode is the caller's functional
// encode, bound once and called once, when the engine first needs the
// output size (after its compute time): it writes the result where the
// caller wants it and returns the size, which the completion reports.
// A caller must reject an encode that cannot succeed before posting it.
//
//hot:per-request AAMS verb, pinned by TestAAMSRoundTripAllocs
func (in *Instance) DevFunc(inBytes float64, encode func() float64) *Completion {
	var op *funcOp
	if n := len(in.freeFuncs); n > 0 {
		op = in.freeFuncs[n-1]
		in.freeFuncs[n-1] = nil
		in.freeFuncs = in.freeFuncs[:n-1]
	} else {
		//detcheck:hotalloc pool miss: warmup-only, bounded by the engine calls started in one instant
		op = &funcOp{in: in}
		op.runFn = op.run
	}
	op.inBytes, op.encode, op.comp = inBytes, encode, in.newCompletion()
	in.dev.env.Go(in.devfuncName, op.runFn)
	return op.comp
}

// run is the devfunc proc body. It copies the op out and returns it to
// the pool before its first wait.
func (op *funcOp) run(p *sim.Proc) {
	o := *op
	*op = funcOp{in: o.in, runFn: o.runFn}
	o.in.freeFuncs = append(o.in.freeFuncs, op)
	n, err := o.in.engine.Job(p, o.inBytes, o.encode)
	if err != nil {
		o.comp.complete(Result{Err: err})
		return
	}
	// Notify the host CPU (paper: "writes the result ... and notifies
	// the application running in the host CPU").
	o.in.dev.notifyHost(p)
	o.comp.complete(Result{Size: int(n)})
}
