package middletier

import (
	"fmt"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/host"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// The BF2 datapath (paper §3.4, Figure 1d): messages land in the SoC's
// DRAM, Arm cores parse, the on-board engine compresses, and results
// leave from device memory. The host is never involved, but the SoC's
// weak DRAM and 40 Gbps engine bound throughput. Payloads traverse
// device memory four times: network-in write, engine read, engine
// write, network-out read (≈3.5x effective with compression).
type bf2Path struct {
	*Server
	mem    *device.Memory
	engine *device.LZ4Engine
	arm    []*host.Core // the SoC's Arm cores, used round-robin
	armRR  int
	out    wireCache
}

func newBF2Path(s *Server) *bf2Path {
	cfg := s.cfg
	d := &bf2Path{Server: s}
	d.mem = device.NewMemory(s.env, "bf2", device.MemoryConfig{
		Capacity:      16 << 30,
		BytesPerSec:   cfg.BF2MemRate,
		AccessLatency: 150e-9,
	})
	d.engine = device.NewLZ4Engine(s.env, "bf2.lz4", d.mem, cfg.BF2EngineRate, 64<<10)
	d.engine.SetTrace(cfg.Trace)
	s.cardMem, s.engines = d.mem, []*device.LZ4Engine{d.engine}
	for i := 0; i < cfg.Ports; i++ {
		port := s.fabric.NewPort(netsim.Addr(fmt.Sprintf("mt-bf2-p%d", i)), cfg.PortRate)
		s.stacks = append(s.stacks, rdma.NewStack(s.env, port, cfg.Transport))
	}
	armCfg := host.CPUConfig{PhysCores: 4, ParseTime: cfg.BF2ParseTime,
		CompressBytesPerSec: 0.6e9, SMTPairBytesPerSec: 0.8e9}
	arm := host.NewPool(s.env, armCfg)
	for i := 0; i < 8; i++ {
		//detcheck:errdrop fresh pool sized for these claims; cannot fail at construction
		c, _ := arm.Claim()
		d.arm = append(d.arm, c)
	}
	return d
}

func (d *bf2Path) parse(p *sim.Proc, r *request) {
	// Network-in: the message is written into SoC DRAM.
	d.mem.Access(p, blockstore.HeaderSize+r.size)
	core := d.arm[d.armRR%len(d.arm)]
	d.armRR++
	core.Parse(p)
}

func (d *bf2Path) compress(p *sim.Proc, r *request) (frame, uint8, error) {
	if !d.engineAvailable(0) {
		// The SoC engine failed: store raw — the Arm cores have no
		// spare cycles for software LZ4, so availability wins.
		d.EngineFallbacks++
		return r.raw(), 0, nil
	}
	// The engine reads and writes SoC DRAM itself (device.Engine
	// charges both inside Run).
	e0 := p.Now()
	f := frame{size: r.size / d.cfg.ModelRatio}
	if r.payload != nil {
		out, err := d.engine.Compress(p, r.payload, d.cfg.Level)
		if err != nil {
			return frame{}, 0, err
		}
		data := lz4.WrapFrame(r.payload, out)
		f = frame{data: data, size: float64(len(data))}
	} else {
		d.engine.Run(p, r.size, f.size)
	}
	// Engine occupancy inside the compress stage (queueing for the
	// engine slot is inside Run; the device-track job.qwait span
	// carries the split).
	if e1 := p.Now(); r.tr != nil && e1 > e0 {
		r.tr.Span(e0, e1, "mt", "compress.engine", r.tid, r.tid, "mt", "compress", trace.KindService, "")
	}
	return f, blockstore.FlagCompressed, nil
}

func (d *bf2Path) send(p *sim.Proc, path int, qp *rdma.QP, hdr blockstore.Header, f frame) *sim.Event {
	size := blockstore.HeaderSize + f.size
	if hdr.Op == blockstore.OpReplicate && !f.host {
		// Network-out: a replicate or repair frame is read from SoC
		// DRAM once per replica.
		d.mem.Access(p, size)
	}
	return qp.SendSized(d.out.encode(hdr, f), size)
}

func (d *bf2Path) poll(*sim.Proc, int) {}

func (d *bf2Path) decompress(p *sim.Proc, r *request, pr *pendingReq) (frame, blockstore.Status) {
	block, status := d.storedBlock(pr)
	if status != blockstore.StatusOK {
		return frame{}, status
	}
	if pr.hdr.Flags&blockstore.FlagCompressed != 0 {
		// Engine decompression timing (reads the frame, writes the block).
		d.engine.Run(p, pr.size, block.size)
	}
	// Network-out read of the reply payload.
	d.mem.Access(p, block.size)
	return block, blockstore.StatusOK
}

func (d *bf2Path) release(*sim.Proc, *request, frame, *sim.Event) {}

func (d *bf2Path) clientQP(conn int) *rdma.QP {
	path := conn % len(d.stacks)
	qp := d.stacks[path].CreateQP()
	qp.OnRecv = func(m *rdma.Message) { d.recv("bf2.req", qp, path, m) }
	return qp
}

// storageQP charges the inbound DRAM write of every storage reply before
// routing it.
func (d *bf2Path) storageQP(path, from int) *rdma.QP {
	qp := d.stacks[path].CreateQP()
	qp.OnRecv = func(m *rdma.Message) {
		d.env.Go("bf2.ack", func(p *sim.Proc) {
			d.mem.Access(p, m.Size)
			d.onStorageReplyFrom(from, m)
		})
	}
	return qp
}
