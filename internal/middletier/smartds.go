package middletier

import (
	"fmt"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/core"
	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// The SmartDS datapath (paper §4, Listing 1): recv descriptors split
// each incoming message — 64-byte header to host memory, payload to HBM.
// The host CPU runs only the flexible control logic (parse, placement
// decisions, descriptor management); the per-port hardware engine
// compresses payloads entirely inside device memory; the Assemble
// module gathers header+payload into outgoing messages.
type sdsPath struct {
	*Server
	insts []*core.Instance // one RoCE instance (port + engine) per path
	// Consecutive sends of one header (a fan-out) share its host buffer:
	// the Assemble module copies it asynchronously, and it is never
	// rewritten, so equal bytes may be gathered from one buffer.
	lastHdr blockstore.Header
	lastBuf *core.HostBuf
}

// completionCPUTime is the host cost of handling one completion event
// (poll + bookkeeping); the paper budgets two host cores per port.
const completionCPUTime = 50e-9

func newSDSPath(s *Server) *sdsPath {
	cfg := s.cfg
	devCfg := core.DefaultConfig(cfg.Ports)
	devCfg.PortBytesPerSec = cfg.PortRate
	if cfg.SDSEngineRate > 0 {
		devCfg.EngineBytesPerSec = cfg.SDSEngineRate
	}
	devCfg.PCIe = cfg.PCIe
	devCfg.Transport = cfg.Transport
	devCfg.HBM = cfg.HBM
	devCfg.Trace = cfg.Trace
	s.sds = core.NewDevice(s.env, "mt-sds", s.fabric, s.Mem, devCfg)
	s.cardMem = s.sds.HBM()
	d := &sdsPath{Server: s}
	for i := 0; i < s.sds.Ports(); i++ {
		inst, err := s.sds.OpenRoCEInstance(i)
		if err != nil {
			panic(err)
		}
		d.insts = append(d.insts, inst)
		s.stacks = append(s.stacks, inst.Stack())
		s.engines = append(s.engines, inst.Engine())
	}
	return d
}

// sdsClientConn is one client connection: a QP plus its descriptor
// pool.
type sdsClientConn struct {
	d     *sdsPath
	inst  *core.Instance
	qp    *rdma.QP
	hbufs []*core.HostBuf
	dbufs []*device.Buffer
}

// clientQP attaches a new client connection to a port, round-robin.
func (d *sdsPath) clientQP(conn int) *rdma.QP {
	inst := d.insts[conn%len(d.insts)]
	c := &sdsClientConn{d: d, inst: inst, qp: inst.CreateQP()}
	maxPayload := d.cfg.BlockSize + 1024
	for i := 0; i < d.cfg.SmartDSInflight; i++ {
		dbuf, err := d.sds.DevAlloc(maxPayload)
		if err != nil {
			panic(fmt.Sprintf("middletier: HBM exhausted sizing descriptor pool: %v", err))
		}
		c.hbufs = append(c.hbufs, d.sds.HostAlloc(d.cfg.SplitBytes))
		c.dbufs = append(c.dbufs, dbuf)
	}
	for i := range c.hbufs {
		c.post(i)
	}
	return c.qp
}

// post arms descriptor slot i and chains its completion handler. The
// descriptor is rearmed as soon as its payload buffer has been consumed
// (right after compression for ordinary writes, right after parsing for
// reads), which keeps the receive pipeline deep during the replication
// round trip; requests that never consume it rearm it on exit.
func (c *sdsClientConn) post(i int) {
	comp := c.inst.DevMixedRecv(c.qp, c.hbufs[i], c.d.cfg.SplitBytes, c.dbufs[i], c.dbufs[i].Size())
	comp.Event().OnTrigger(func(v interface{}) {
		res := v.(core.Result)
		c.d.env.Go("sds.req", func(p *sim.Proc) {
			r := c.d.newRequest()
			if c.request(r, i, res) {
				c.d.serve(p, r)
			}
			c.d.repost(r)
			c.d.freeRequest(r)
		})
	})
}

// request fills r from descriptor slot i's split completion; false
// drops a message that failed placement or carries no valid header.
func (c *sdsClientConn) request(r *request, i int, res core.Result) bool {
	r.conn, r.slot = c, i
	if res.Err != nil {
		return false
	}
	hdr, err := blockstore.Decode(c.hbufs[i].Bytes())
	if err != nil {
		return false
	}
	r.hdr, r.size, r.dev = hdr, float64(res.Size), c.dbufs[i]
	r.qp, r.path = c.qp, c.inst.Index()
	if res.Placed > 0 {
		r.payload = c.dbufs[i].Bytes()[:res.Placed]
	}
	// With an oversized split (ablation), part of the payload landed in
	// host memory; account for it in the request size.
	if extra := c.d.cfg.SplitBytes - blockstore.HeaderSize; extra > 0 &&
		hdr.Op == blockstore.OpWrite && hdr.OrigLen > 0 {
		r.size = float64(hdr.OrigLen)
		r.hostResident = min(float64(extra), r.size)
		r.payload = nil // functional path requires the header-only split
	}
	return true
}

// repost rearms r's receive descriptor, once.
func (d *sdsPath) repost(r *request) {
	if !r.reposted {
		r.reposted = true
		r.conn.post(r.slot)
	}
}

func (d *sdsPath) parse(p *sim.Proc, r *request) {
	r.core = d.nextCore()
	r.core.Parse(p)
	if r.hdr.Op == blockstore.OpRead {
		d.repost(r) // reads carry no payload
	}
}

// compress runs the port's engine inside HBM, or a surviving port's
// engine through the shared HBM when ours is down.
func (d *sdsPath) compress(p *sim.Proc, r *request) (frame, uint8, error) {
	eng := d.insts[r.path]
	if !d.engineAvailable(r.path) {
		alt := d.altEnginePort(r.path)
		if alt < 0 {
			// Every port engine is down: store raw. The descriptor's HBM
			// buffer carries the payload out, exactly like bypass.
			d.EngineFallbacks++
			return r.raw(), 0, nil
		}
		eng = d.insts[alt]
		d.EngineReroutes++
	}
	dst, err := d.sds.DevAlloc(lz4.CompressBound(d.cfg.BlockSize))
	if err != nil {
		return frame{}, 0, fmt.Errorf("middletier: HBM exhausted for compression output: %w", err)
	}
	if r.hostResident > 0 {
		// Fetch the host-resident payload prefix back into HBM so the
		// engine sees a contiguous block — the round trip an oversized
		// split costs.
		fetch := d.sds.PCIe().StartDMA(pcie.H2D, r.hostResident)
		p.Wait(d.Mem.StartRead(r.hostResident))
		p.Wait(fetch)
		p.Wait(d.sds.HBM().StartAccess(r.hostResident))
	}
	e0 := p.Now()
	f := frame{size: r.size/d.cfg.ModelRatio + lz4.FrameHeaderSize, dev: dst, own: true}
	if r.payload != nil {
		res := core.Poll(p, eng.DevFunc(r.dev, len(r.payload), dst, d.cfg.Level))
		if res.Err != nil {
			dst.Free()
			return frame{}, 0, res.Err
		}
		// Wrap as a frame in place: the storage server persists frames.
		data := lz4.WrapFrame(r.payload, dst.Bytes()[:res.Size])
		copy(dst.Bytes(), data)
		f.size = float64(len(data))
	} else {
		eng.Engine().Run(p, r.size, r.size/d.cfg.ModelRatio)
	}
	// Engine occupancy inside the compress stage; the device-track
	// job.qwait/job.run spans carry the slot-wait split.
	if e1 := p.Now(); r.tr != nil && e1 > e0 {
		r.tr.Span(e0, e1, "mt", "compress.engine", r.tid, r.tid, "mt", "compress", trace.KindService, "")
	}
	d.repost(r) // the descriptor's payload buffer is consumed
	return f, blockstore.FlagCompressed, nil
}

// send gathers the header from host memory and the payload from HBM.
// Payload held elsewhere is staged first: bytes (a quorum read's repair
// frame) are copied into a scratch HBM buffer freed on completion, and
// host-resident maintenance output crosses PCIe as part of the host
// half.
func (d *sdsPath) send(p *sim.Proc, path int, qp *rdma.QP, hdr blockstore.Header, f frame) *sim.Event {
	inst := d.insts[path]
	hdr.PayloadLen = uint32(f.size)
	if f.host {
		total := int(blockstore.HeaderSize + f.size)
		big := d.sds.HostAlloc(total)
		copy(big.Bytes(), hdr.Encode())
		return inst.DevMixedSend(qp, big, total, nil, 0).Event()
	}
	if d.lastBuf == nil || hdr != d.lastHdr {
		d.lastHdr, d.lastBuf = hdr, d.sds.HostAlloc(blockstore.HeaderSize)
		copy(d.lastBuf.Bytes(), hdr.Encode())
	}
	buf := f.dev
	if buf == nil && f.size > 0 {
		var err error
		if buf, err = d.sds.DevAlloc(int(f.size)); err != nil {
			return nil
		}
		copy(buf.Bytes(), f.data)
	}
	comp := inst.DevMixedSend(qp, d.lastBuf, blockstore.HeaderSize, buf, int(f.size))
	if buf != f.dev {
		comp.Event().OnTrigger(func(interface{}) { buf.Free() })
	}
	return comp.Event()
}

func (d *sdsPath) poll(p *sim.Proc, n int) {
	d.nextCore().Work(p, completionCPUTime*float64(n))
}

// decompress decodes the fetched frame into a fresh HBM block buffer,
// charging the port engine's decompression time.
func (d *sdsPath) decompress(p *sim.Proc, r *request, pr *pendingReq) (frame, blockstore.Status) {
	block, status := d.storedBlock(pr)
	if status != blockstore.StatusOK {
		return frame{}, status
	}
	var err error
	if block.dev, err = d.sds.DevAlloc(int(block.size)); err != nil {
		return frame{}, blockstore.StatusError
	}
	block.own = true
	copy(block.dev.Bytes(), block.data)
	if pr.hdr.Flags&blockstore.FlagCompressed != 0 {
		// Engine decompression timing inside HBM.
		d.insts[r.path].Engine().Run(p, pr.size, block.size)
	}
	return block, blockstore.StatusOK
}

// release frees the request's HBM buffer: a write's compression output
// right away, then one completion poll for the posted ack; a read's
// block once the reply's gather finished with it.
func (d *sdsPath) release(p *sim.Proc, r *request, f frame, sent *sim.Event) {
	if r.hdr.Op == blockstore.OpRead && f.own {
		p.Wait(sent)
	}
	if f.own {
		f.dev.Free()
	}
	if r.hdr.Op == blockstore.OpWrite {
		d.poll(p, 1)
	}
}

// storageQP builds the instance-side QP for one storage connection plus
// its ack/fetch-reply descriptor pool.
func (d *sdsPath) storageQP(path, from int) *rdma.QP {
	inst := d.insts[path]
	qp := inst.CreateQP()
	const ackDepth = 64
	maxFrame := lz4.CompressBound(d.cfg.BlockSize) + lz4.FrameHeaderSize
	for i := 0; i < ackDepth; i++ {
		hbuf := d.sds.HostAlloc(blockstore.HeaderSize)
		dbuf, err := d.sds.DevAlloc(maxFrame)
		if err != nil {
			panic(err)
		}
		d.postAckDesc(inst, qp, from, hbuf, dbuf)
	}
	return qp
}

// postAckDesc arms one storage-reply descriptor. Replicate acks repost
// immediately; fetch replies hand the device buffer to the waiting
// read request and repost on release.
func (d *sdsPath) postAckDesc(inst *core.Instance, qp *rdma.QP, from int, hbuf *core.HostBuf, dbuf *device.Buffer) {
	comp := inst.DevMixedRecv(qp, hbuf, blockstore.HeaderSize, dbuf, dbuf.Size())
	comp.Event().OnTrigger(func(v interface{}) {
		res := v.(core.Result)
		h, err := blockstore.Decode(hbuf.Bytes())
		switch {
		case res.Err != nil || err != nil:
		case h.Op == blockstore.OpReplicateReply:
			d.completePending(h.ReqID, from, h.Status, nil, 0, h)
		case h.Op != blockstore.OpFetchReply:
		case d.pending[h.ReqID] == nil:
			// Stale fetch reply (its read already timed out and moved on):
			// count it like any other stale ack, repost immediately.
			d.StaleAcks++
		default:
			var payload []byte
			if res.Placed > 0 {
				payload = dbuf.Bytes()[:res.Placed]
			}
			d.pending[h.ReqID].release = func() { d.postAckDesc(inst, qp, from, hbuf, dbuf) }
			d.completePending(h.ReqID, from, h.Status, payload, float64(res.Size), h)
			return
		}
		d.postAckDesc(inst, qp, from, hbuf, dbuf)
	})
}
