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
// One encoder serves every worker core and the Acc card. Sharing it is
// safe: Encoder.Compress never parks a proc, the simulation runs one
// goroutine at a time, and the encoder's output depends only on the
// block and the level, never on the blocks before it.
type hostPath struct {
	*Server
	accelSlot *sim.Resource // the Acc card's single engine slot
	enc       *lz4.Encoder
	encBuf    []byte // compressed scratch; WrapFrame copies out of it
	out       wireCache
}

func newHostPath(s *Server) *hostPath {
	cfg := s.cfg
	d := &hostPath{
		Server: s,
		enc:    lz4.NewEncoder(cfg.BlockSize),
		encBuf: make([]byte, lz4.CompressBound(cfg.BlockSize)),
	}
	s.nic = host.NewNIC(s.env, s.fabric, "mt-nic", cfg.PortRate, cfg.PCIe, cfg.Transport, s.Mem)
	// The NIC's DRAM traffic shares follow the LLC model: retained buffers
	// always evict (write fraction ~1), while TX reads hit the LLC only
	// when DDIO holds the just-produced data.
	retained := mem.RetainedWorkingSet(cfg.PortRate, cfg.BufferLifetime) // worst-case retained traffic
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
		level := d.chooseLevel(r.core.QueueLen())
		d.Mem.Read(p, r.size)
		r.core.CompressSlowed(p, r.size, d.Mem.ContentionFactor()*effortTimeFactor(level))
		data, size, err := d.softwareCompress(r, level)
		if err != nil {
			return frame{}, 0, err
		}
		d.Mem.Write(p, size)
		return frame{data: data, size: size}, blockstore.FlagCompressed, nil
	case !d.engineAvailable(0): // Accel, card failed
		// Store raw rather than stall the write path: software LZ4 on
		// the control cores would collapse throughput, so availability
		// wins and the frame goes out uncompressed.
		d.EngineFallbacks++
		return r.raw(), 0, nil
	}
	f := frame{size: r.size / d.cfg.ModelRatio}
	if r.payload != nil {
		data, err := d.encodeFrame(r.payload, d.cfg.Level)
		if err != nil {
			return frame{}, 0, err
		}
		f = frame{data: data, size: float64(len(data))}
	}
	d.accelOffload(p, r, "compress", r.size, f.size)
	return f, blockstore.FlagCompressed, nil
}

// accelOffload bounces one job through the FPGA card: the CPU rings the
// doorbell, the card fetches in bytes over PCIe H2D (from the LLC when
// DDIO holds them), the engine runs one job at a time, and the out
// bytes are written back D2H (evicted to DRAM later: retained buffer).
func (d *hostPath) accelOffload(p *sim.Proc, r *request, stage string, in, out float64) {
	d.accelPCIe.Doorbell(p)
	fetch := d.accelPCIe.StartDMA(pcie.H2D, in)
	if !d.cfg.DDIO {
		p.Wait(d.Mem.StartRead(in))
	}
	p.Wait(fetch)
	// Decompression is paced by its output. Compression streams its input,
	// and that DMA stream stalls under DRAM contention: fully with DDIO
	// off, partly (the LLC absorbs some traffic) with DDIO on. Sub-span
	// names are static strings so recording stays allocation-free.
	busy := out / d.cfg.AccelEngineRate
	qname, ename := "decompress.qwait", "decompress.engine"
	if stage == "compress" {
		memF := d.Mem.ContentionFactor()
		if d.cfg.DDIO {
			memF = 1 + (memF-1)*0.6
		}
		busy = in * memF / d.cfg.AccelEngineRate
		qname, ename = "compress.qwait", "compress.engine"
	}
	q0 := p.Now()
	d.accelSlot.Acquire(p)
	q1 := p.Now()
	p.Sleep(busy)
	d.accelSlot.Release()
	// The engine-occupancy split under the stage: queue wait for the slot
	// vs engine busy time.
	if e1 := p.Now(); r.tr != nil {
		if q1 > q0 {
			r.tr.Span(q0, q1, "mt", qname, r.tid, r.tid, "mt", stage, trace.KindWait, "")
		}
		if e1 > q1 {
			r.tr.Span(q1, e1, "mt", ename, r.tid, r.tid, "mt", stage, trace.KindService, "")
		}
	}
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
		d.Mem.Read(p, pr.size)
		r.core.Decompress(p, block.size)
		d.Mem.Write(p, block.size)
	case pr.payload != nil: // Accel; a modeled frame costs the card nothing
		d.accelOffload(p, r, "decompress", pr.size, block.size)
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

// softwareCompress runs functional LZ4 at the given effort (a request
// header may demand a higher minimum) and returns the frame and its
// size. Modeled-only payloads use ModelRatio.
func (d *hostPath) softwareCompress(r *request, level lz4.Level) ([]byte, float64, error) {
	if r.payload == nil {
		return nil, r.size / d.cfg.ModelRatio, nil
	}
	frame, err := d.encodeFrame(r.payload, lz4.Level(max(r.hdr.Level, uint8(level))))
	return frame, float64(len(frame)), err
}

// encodeFrame is lz4.EncodeFrame on the shared encoder and scratch
// buffer; the returned frame is the only allocation.
func (d *hostPath) encodeFrame(block []byte, level lz4.Level) ([]byte, error) {
	if !level.Valid() {
		level = lz4.LevelDefault
	}
	if n := lz4.CompressBound(len(block)); len(d.encBuf) < n {
		d.encBuf = make([]byte, n)
	}
	n, err := d.enc.Compress(d.encBuf, block, level)
	if err != nil {
		return nil, err
	}
	return lz4.WrapFrame(block, d.encBuf[:n]), nil
}
