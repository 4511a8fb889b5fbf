package middletier

import (
	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/host"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// The host datapath (CPU-only and Acc, Figure 1a/b): the NIC DMA-writes
// every message into host memory, a worker core parses it, and the
// payload is compressed either by software LZ4 on that core (CPU-only)
// or by bouncing it over PCIe through the FPGA card (Acc). Every
// outgoing byte is DMA-read back out of host memory by the NIC.
//
// The server's codec serves every worker core and the Acc card.
// Sharing it is safe: its Compress never parks a proc, the simulation
// runs one goroutine at a time, and the output depends only on the
// block and the level, never on the blocks before it.
type hostPath struct {
	*Server
	accelSlot *sim.Resource // the Acc card's single engine slot
	out       wireCache
}

func newHostPath(s *Server) *hostPath {
	cfg := s.cfg
	d := &hostPath{Server: s}
	s.nic = host.NewNIC(s.env, s.fabric, "mt-nic", cfg.PortRate, cfg.PCIe, cfg.Transport, s.Mem)
	// The NIC's DRAM traffic shares follow the LLC model: retained buffers
	// always evict (write fraction ~1), while TX reads hit the LLC only
	// when DDIO holds the just-produced data.
	retained := mem.RetainedWorkingSet(cfg.PortRate, bufferLifetime) // worst-case retained traffic
	s.nic.MemWriteFraction = s.Mem.WriteEvictFraction(retained)
	if cfg.DDIO {
		s.nic.MemReadFraction = 0
	}
	if cfg.Kind == Accel {
		s.accelPCIe = pcie.New(s.env, "mt-accel.pcie", cfg.PCIe)
		d.accelSlot = s.env.NewResource("mt-accel.engine", 1)
	}
	s.stacks = []*rdma.Stack{s.nic.Stack()}
	return d
}

func (d *hostPath) parse(p *sim.Proc, r *request) {
	r.core = d.nextCore()
	r.core.Parse(p)
}

func (d *hostPath) compress(p *sim.Proc, r *request) (frame, uint8, error) {
	switch {
	case d.cfg.Kind == CPUOnly:
		// Software LZ4: read the block from DRAM, burn core time (slowed
		// by DRAM latency amplification when the bus is contended, and
		// scaled by the chosen compression effort), write the frame back.
		// A request header may demand a higher minimum effort.
		level := d.chooseLevel(r.core.QueueLen())
		d.Mem.Read(p, r.in.size)
		r.core.CompressSlowed(p, r.in.size, d.Mem.ContentionFactor()*effortTimeFactor(level))
		r.encLevel = lz4.Level(max(r.hdr.Level, uint8(level)))
		d.compressFrame(r)
		d.Mem.Write(p, r.out.size)
		return r.out, blockstore.FlagCompressed, nil
	case !d.engineAvailable(0): // Accel, card failed
		// Store raw rather than stall the write path: software LZ4 on
		// the control cores would collapse throughput, so availability
		// wins and the frame goes out uncompressed.
		d.EngineFallbacks++
		return r.in, 0, nil
	}
	r.encLevel = d.cfg.Level
	d.accelFetch(p, r.in.size)
	// Compression streams its input, and that DMA stream stalls under
	// DRAM contention: fully with DDIO off, partly (the LLC absorbs some
	// traffic) with DDIO on.
	memF := d.Mem.ContentionFactor()
	if d.cfg.DDIO {
		memF = 1 + (memF-1)*0.6
	}
	d.accelEngine(p, r, accelCompress, r.in.size*memF/accelEngineRate)
	// The frame is built where its size is first needed.
	d.compressFrame(r)
	d.accelWriteback(p, r.out.size)
	return r.out, blockstore.FlagCompressed, nil
}

// An Acc job bounces through the FPGA card in three steps: the CPU
// rings the doorbell and the card fetches the input over PCIe H2D (from
// the LLC when DDIO holds it), the engine runs one job at a time, and
// the output is written back D2H (evicted to DRAM later: retained
// buffer).

// accelStage names an engine job's stage and its two sub-spans, static
// strings so recording stays allocation-free.
type accelStage struct{ name, qwait, engine string }

var (
	accelCompress   = accelStage{"compress", "compress.qwait", "compress.engine"}
	accelDecompress = accelStage{"decompress", "decompress.qwait", "decompress.engine"}
)

// accelFetch rings the card's doorbell and waits for its fetch of in
// bytes.
func (d *hostPath) accelFetch(p *sim.Proc, in float64) {
	d.accelPCIe.Doorbell(p)
	fetch := d.accelPCIe.StartDMA(pcie.H2D, in)
	if !d.cfg.DDIO {
		p.Wait(d.Mem.StartRead(in))
	}
	p.Wait(fetch)
}

// accelEngine holds the card's engine slot for busy seconds, recording
// the engine-occupancy split under the stage: queue wait for the slot
// vs engine busy time.
func (d *hostPath) accelEngine(p *sim.Proc, r *request, st accelStage, busy float64) {
	q0 := p.Now()
	d.accelSlot.Acquire(p)
	q1 := p.Now()
	p.Sleep(busy)
	d.accelSlot.Release()
	if e1 := p.Now(); r.tr != nil {
		if q1 > q0 {
			r.tr.Span(q0, q1, "mt", st.qwait, r.tid, r.tid, "mt", st.name, trace.KindWait, "")
		}
		if e1 > q1 {
			r.tr.Span(q1, e1, "mt", st.engine, r.tid, r.tid, "mt", st.name, trace.KindService, "")
		}
	}
}

// accelWriteback writes out bytes back to host memory.
func (d *hostPath) accelWriteback(p *sim.Proc, out float64) {
	wb := d.accelPCIe.StartDMA(pcie.D2H, out)
	p.Wait(d.Mem.StartWrite(out))
	p.Wait(wb)
}

func (d *hostPath) send(p *sim.Proc, path int, qp *rdma.QP, hdr blockstore.Header, f frame) *sim.Event {
	return d.nic.Send(qp, d.out.encode(hdr, f), blockstore.HeaderSize+f.size)
}

func (d *hostPath) poll(*sim.Proc, int) {}

// decompress charges a compressed frame's decompression (a raw one is
// forwarded as-is), even when the frame then fails to decode.
func (d *hostPath) decompress(p *sim.Proc, r *request, pr *pendingReq) (frame, blockstore.Status) {
	block, status := d.storedBlock(pr)
	switch {
	case pr.hdr.Flags&blockstore.FlagCompressed == 0:
	case d.cfg.Kind == CPUOnly:
		d.Mem.Read(p, pr.f.size)
		r.core.Decompress(p, block.size)
		d.Mem.Write(p, block.size)
	default: // Accel: decompression is paced by its output
		d.accelFetch(p, pr.f.size)
		d.accelEngine(p, r, accelDecompress, block.size/accelEngineRate)
		d.accelWriteback(p, block.size)
	}
	if status != blockstore.StatusOK {
		return frame{}, status
	}
	return block, status
}

func (d *hostPath) release(*sim.Proc, *request, frame, *sim.Event) {}

// clientQP is the host entry point: the NIC has already DMA-written each
// message into host memory when the handler runs.
func (d *hostPath) clientQP(int) *rdma.QP {
	return d.nic.CreateQP(func(qp *rdma.QP, m *rdma.Message) { d.recv("mt.req", qp, 0, m) })
}

func (d *hostPath) storageQP(_, from int) *rdma.QP {
	return d.nic.CreateQP(func(_ *rdma.QP, m *rdma.Message) { d.onStorageReplyFrom(from, m) })
}
