package core

import (
	"fmt"

	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
)

// Instance is one extended RoCE instance: transport stack + Split +
// Assemble modules + a per-port compression engine (paper Figure 6).
type Instance struct {
	dev    *Device
	index  int
	stack  *rdma.Stack
	engine *device.LZ4Engine

	// Debug names of the procs this instance spawns per request, built
	// once so the request path formats nothing.
	splitName, assembleName, devfuncName string

	recvQ map[int]*qpRecvState
}

// qpRecvState is the Split module's per-QP descriptor table plus the
// buffer of messages that arrived before a descriptor was posted
// (receiver-not-ready, held by the transport in real RoCE).
type qpRecvState struct {
	descs []*recvDesc
	msgs  []*rdma.Message
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
func (in *Instance) Engine() *device.LZ4Engine { return in.engine }

// Device returns the owning card.
func (in *Instance) Device() *Device { return in.dev }

// Completion is the asynchronous event every Table 2 verb returns.
type Completion struct {
	ev *sim.Event
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
func (c *Completion) Event() *sim.Event { return c.ev }

// Done reports whether the completion fired.
func (c *Completion) Done() bool { return c.ev.Done() }

// Poll implements poll(event): block until the verb completes.
func Poll(p *sim.Proc, c *Completion) Result {
	v := p.Wait(c.ev)
	if v == nil {
		return Result{}
	}
	return v.(Result)
}

func (in *Instance) newCompletion() *Completion {
	return &Completion{ev: in.dev.env.NewEvent()}
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
	st.descs = append(st.descs, &recvDesc{hbuf: hbuf, hsize: hsize, dbuf: dbuf, dsize: dsize, comp: comp})
	in.matchRecv(st)
	return comp
}

// onMessage is the Split module's input: an in-order RDMA message.
func (in *Instance) onMessage(st *qpRecvState, m *rdma.Message) {
	st.msgs = append(st.msgs, m)
	in.matchRecv(st)
}

// matchRecv pairs queued messages with posted descriptors in FIFO
// order and starts placement for each pair.
func (in *Instance) matchRecv(st *qpRecvState) {
	for len(st.msgs) > 0 && len(st.descs) > 0 {
		m := st.msgs[0]
		st.msgs = st.msgs[1:]
		d := st.descs[0]
		st.descs = st.descs[1:]
		in.place(m, d)
	}
}

// place performs the split: header bytes cross PCIe into host memory,
// payload bytes go to device memory, then the host is notified.
func (in *Instance) place(m *rdma.Message, d *recvDesc) {
	dev := in.dev
	dev.spanSeq++
	span := dev.spanSeq
	dev.env.Go(in.splitName, func(p *sim.Proc) {
		// Head-sampled by span seq; identity at full rate.
		tr := dev.tr.ForRequest(span)
		tr.Begin(p.Now(), dev.name, "split", span)
		defer func() { tr.End(p.Now(), dev.name, "split", span) }()
		total := int(m.Size)
		hdr := d.hsize
		if hdr > total {
			hdr = total
		}
		payload := total - hdr
		if payload > d.dsize {
			d.comp.ev.Trigger(Result{Err: fmt.Errorf("core: %d payload bytes exceed device buffer (%d)", payload, d.dsize)})
			return
		}
		// Functional placement of whatever real bytes the message
		// carries (modeled traffic materializes only its header).
		placed := 0
		if m.Data != nil {
			n := hdr
			if n > len(m.Data) {
				n = len(m.Data)
			}
			copy(d.hbuf.data, m.Data[:n])
			if d.dbuf != nil && len(m.Data) > hdr {
				placed = copy(d.dbuf.Bytes(), m.Data[hdr:])
			}
		}
		// Header -> host via PCIe D2H, landing in host DRAM.
		var waits []*sim.Event
		if hdr > 0 {
			waits = append(waits, dev.pcieLink.StartDMA(pcie.D2H, float64(hdr)))
			waits = append(waits, dev.hostMem.StartWrite(float64(hdr)))
		}
		// Payload -> device memory.
		if payload > 0 {
			waits = append(waits, dev.hbm.StartAccess(float64(payload)))
		}
		for _, ev := range waits {
			p.Wait(ev)
		}
		// Completion record to the host (tiny D2H write).
		p.Wait(dev.pcieLink.StartDMA(pcie.D2H, dev.cfg.CompletionBytes))
		dev.hostMem.StartWrite(dev.cfg.CompletionBytes)
		d.comp.ev.Trigger(Result{Size: payload, Placed: placed})
	})
}

// DevMixedSend implements dev_mixed_send: gather hsize bytes from host
// memory and dsize bytes from device memory into one RDMA message. The
// completion fires when the transport acknowledges delivery; Size is
// the message size.
func (in *Instance) DevMixedSend(qp *rdma.QP, hbuf *HostBuf, hsize int, dbuf *device.Buffer, dsize int) *Completion {
	if dbuf == nil && dsize > 0 {
		panic("core: send descriptor with payload bytes but no device buffer")
	}
	if hsize > len(hbuf.data) || (dbuf != nil && dsize > dbuf.Size()) {
		panic("core: send descriptor larger than its buffers")
	}
	comp := in.newCompletion()
	dev := in.dev
	dev.spanSeq++
	span := dev.spanSeq
	dev.env.Go(in.assembleName, func(p *sim.Proc) {
		// Head-sampled by span seq; identity at full rate.
		tr := dev.tr.ForRequest(span)
		tr.Begin(p.Now(), dev.name, "assemble", span)
		defer func() { tr.End(p.Now(), dev.name, "assemble", span) }()
		// Gather both halves in parallel: PCIe H2D for the header,
		// device memory for the payload.
		var waits []*sim.Event
		if hsize > 0 {
			waits = append(waits, dev.pcieLink.StartDMA(pcie.H2D, float64(hsize)))
			waits = append(waits, dev.hostMem.StartRead(float64(hsize)))
		}
		if dsize > 0 {
			waits = append(waits, dev.hbm.StartAccess(float64(dsize)))
		}
		for _, ev := range waits {
			p.Wait(ev)
		}
		data := make([]byte, hsize+dsize)
		copy(data, hbuf.data[:hsize])
		if dbuf != nil {
			copy(data[hsize:], dbuf.Bytes()[:dsize])
		}
		v := p.Wait(qp.Send(data))
		// Completion record to the host.
		p.Wait(dev.pcieLink.StartDMA(pcie.D2H, dev.cfg.CompletionBytes))
		dev.hostMem.StartWrite(dev.cfg.CompletionBytes)
		if err, ok := v.(error); ok && err != nil {
			comp.ev.Trigger(Result{Err: err})
			return
		}
		comp.ev.Trigger(Result{Size: hsize + dsize})
	})
	return comp
}

// DevFunc implements dev_func: invoke the instance's hardware engine on
// srcSize bytes of src, writing the result into dst. Size is the
// result byte count.
func (in *Instance) DevFunc(src *device.Buffer, srcSize int, dst *device.Buffer, level lz4.Level) *Completion {
	if srcSize > src.Size() {
		panic("core: DevFunc source size exceeds buffer")
	}
	comp := in.newCompletion()
	dev := in.dev
	dev.env.Go(in.devfuncName, func(p *sim.Proc) {
		out, err := in.engine.Compress(p, src.Bytes()[:srcSize], level)
		if err != nil {
			comp.ev.Trigger(Result{Err: err})
			return
		}
		if len(out) > dst.Size() {
			comp.ev.Trigger(Result{Err: fmt.Errorf("core: compressed output %d exceeds destination %d", len(out), dst.Size())})
			return
		}
		copy(dst.Bytes(), out)
		// Notify the host CPU (paper: "writes the result ... and
		// notifies the application running in the host CPU").
		p.Wait(dev.pcieLink.StartDMA(pcie.D2H, dev.cfg.CompletionBytes))
		dev.hostMem.StartWrite(dev.cfg.CompletionBytes)
		comp.ev.Trigger(Result{Size: len(out)})
	})
	return comp
}

// DevFuncDecompress is the read-path twin of DevFunc: decompress
// srcSize bytes of src (an LZ4 block) into dst, whose needed size is
// origSize.
func (in *Instance) DevFuncDecompress(src *device.Buffer, srcSize int, dst *device.Buffer, origSize int) *Completion {
	if srcSize > src.Size() {
		panic("core: DevFuncDecompress source size exceeds buffer")
	}
	comp := in.newCompletion()
	dev := in.dev
	dev.env.Go(in.devfuncName, func(p *sim.Proc) {
		if origSize > dst.Size() {
			comp.ev.Trigger(Result{Err: fmt.Errorf("core: decompressed output %d exceeds destination %d", origSize, dst.Size())})
			return
		}
		out, err := in.engine.Decompress(p, src.Bytes()[:srcSize], origSize)
		if err != nil {
			comp.ev.Trigger(Result{Err: err})
			return
		}
		copy(dst.Bytes(), out)
		p.Wait(dev.pcieLink.StartDMA(pcie.D2H, dev.cfg.CompletionBytes))
		dev.hostMem.StartWrite(dev.cfg.CompletionBytes)
		comp.ev.Trigger(Result{Size: origSize})
	})
	return comp
}
