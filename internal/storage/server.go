package storage

import (
	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// DiskConfig models the server's NVMe flash (paper cites PCIe flash
// with millions of IOPS and tens-of-microseconds latency).
type DiskConfig struct {
	WriteLatency float64 // per-IO access latency
	ReadLatency  float64
	BytesPerSec  float64 // sustained bandwidth
	QueueDepth   int     // concurrent commands
}

// DefaultDisk returns D7-P5520-like parameters.
func DefaultDisk() DiskConfig {
	return DiskConfig{
		WriteLatency: 15e-6,
		ReadLatency:  65e-6,
		BytesPerSec:  4e9,
		QueueDepth:   128,
	}
}

// Disk is the device model: a command-slot pool plus a bandwidth link.
type Disk struct {
	cfg   DiskConfig
	slots *sim.Resource
	bw    *sim.PSLink
}

// NewDisk creates a disk.
func NewDisk(env *sim.Env, name string, cfg DiskConfig) *Disk {
	def := DefaultDisk()
	if cfg.WriteLatency <= 0 {
		cfg.WriteLatency = def.WriteLatency
	}
	if cfg.ReadLatency <= 0 {
		cfg.ReadLatency = def.ReadLatency
	}
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = def.BytesPerSec
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	return &Disk{
		cfg:   cfg,
		slots: env.NewResource(name+".dq", cfg.QueueDepth),
		bw:    env.NewPSLink(name+".dbw", cfg.BytesPerSec, 0),
	}
}

// Write charges one write IO of n bytes.
func (d *Disk) Write(p *sim.Proc, n float64) {
	d.slots.Acquire(p)
	p.Sleep(d.cfg.WriteLatency)
	d.bw.Transfer(p, n)
	d.slots.Release()
}

// Read charges one read IO of n bytes.
func (d *Disk) Read(p *sim.Proc, n float64) {
	d.slots.Acquire(p)
	p.Sleep(d.cfg.ReadLatency)
	d.bw.Transfer(p, n)
	d.slots.Release()
}

// Server is one storage server: transport + disk + chunk store. It
// serves OpReplicate (append a block version, reply success) and
// OpFetch (return the stored frame).
type Server struct {
	env   *sim.Env
	name  string
	stack *rdma.Stack
	disk  *Disk
	store *ChunkStore

	// Writes and Reads count served requests; NotFound counts the reads
	// answered StatusNotFound (the block was never stored here, or was
	// lost in a crash).
	Writes, Reads, NotFound uint64
	// down silences the service loop while the machine is failed. The
	// fault injector additionally drops the server's fabric traffic (a
	// dead NIC acks nothing); this flag is the belt-and-braces guard for
	// requests already past the transport when the crash lands.
	down bool
	// Verify enables payload CRC checking on replicate (integrity
	// testing; adds wall-clock cost, not simulated time).
	Verify bool
	// Trace, when set, records one span per disk IO (queue wait +
	// access latency + bandwidth) on the server's track.
	Trace   *trace.Tracer
	diskSeq uint64
}

// diskWrite wraps one disk write IO in a trace span (head-sampled by
// IO sequence number; at full rate ForRequest is the identity).
func (s *Server) diskWrite(p *sim.Proc, n float64) {
	s.diskSeq++
	id := s.diskSeq
	tr := s.Trace.ForRequest(id)
	tr.Begin(p.Now(), s.name, "disk-write", id)
	s.disk.Write(p, n)
	tr.End(p.Now(), s.name, "disk-write", id)
}

// diskRead wraps one disk read IO in a trace span.
func (s *Server) diskRead(p *sim.Proc, n float64) {
	s.diskSeq++
	id := s.diskSeq
	tr := s.Trace.ForRequest(id)
	tr.Begin(p.Now(), s.name, "disk-read", id)
	s.disk.Read(p, n)
	tr.End(p.Now(), s.name, "disk-read", id)
}

// NewServer attaches a storage server to the fabric.
func NewServer(env *sim.Env, fabric *netsim.Fabric, addr netsim.Addr, portRate float64,
	transport rdma.Config, disk DiskConfig) *Server {
	s := &Server{
		env:   env,
		name:  string(addr),
		stack: rdma.NewStack(env, fabric.NewPort(addr, portRate), transport),
		disk:  NewDisk(env, string(addr), disk),
		store: NewChunkStore(),
	}
	return s
}

// Stack exposes the transport for connection setup.
func (s *Server) Stack() *rdma.Stack { return s.stack }

// SetDown marks the server failed (true) or serving (false).
func (s *Server) SetDown(down bool) { s.down = down }

// Down reports whether the server is failed.
func (s *Server) Down() bool { return s.down }

// Crash models a fail-stop loss of the machine: the service loop goes
// silent and the store's contents are gone. Recovery streams the data
// back from surviving replicas (middletier.Server.RebuildServer).
func (s *Server) Crash() {
	s.down = true
	s.store = NewChunkStore()
}

// Recover brings the crashed server back with an empty store, ready
// for the rebuild to repopulate it.
func (s *Server) Recover() { s.down = false }

// Store exposes the chunk store (tests, GC service).
func (s *Server) Store() *ChunkStore { return s.store }

// AcceptQP creates a server-side QP ready to serve requests arriving
// from one middle-tier connection.
func (s *Server) AcceptQP() *rdma.QP {
	qp := s.stack.CreateQP()
	qp.OnRecv = func(m *rdma.Message) { s.serve(qp, m) }
	return qp
}

// serve handles one request message.
func (s *Server) serve(qp *rdma.QP, m *rdma.Message) {
	if s.down {
		return
	}
	s.env.Go(s.name+".serve", func(p *sim.Proc) {
		if m.Data == nil {
			// Modeled-only traffic: charge the disk for the payload and
			// reply with a bare success header.
			s.Writes++
			s.diskWrite(p, m.Size)
			h := blockstore.Header{Op: blockstore.OpReplicateReply, Status: blockstore.StatusOK}
			p.Wait(qp.Send(h.Encode()))
			return
		}
		h, err := blockstore.Decode(m.Data)
		if err != nil {
			reply := blockstore.Header{Op: blockstore.OpReplicateReply, Status: blockstore.StatusError}
			p.Wait(qp.Send(reply.Encode()))
			return
		}
		payload := m.Data[blockstore.HeaderSize:]
		// A header-only message whose header promises a payload is
		// modeled-size traffic: charge the disk, skip the store.
		if len(payload) == 0 && h.PayloadLen > 0 && h.Op == blockstore.OpReplicate {
			s.Writes++
			s.diskWrite(p, float64(h.PayloadLen))
			key := BlockKey{SegmentID: h.SegmentID, ChunkID: h.ChunkID, BlockOff: h.BlockOff}
			s.store.AppendModeledVersioned(key, h.PayloadLen, h.Flags, h.Version)
			reply := blockstore.Header{Op: blockstore.OpReplicateReply, ReqID: h.ReqID, Status: blockstore.StatusOK}
			p.Wait(qp.Send(reply.Encode()))
			return
		}
		if int(h.PayloadLen) != len(payload) {
			reply := blockstore.Header{Op: blockstore.OpReplicateReply, ReqID: h.ReqID, Status: blockstore.StatusError}
			p.Wait(qp.Send(reply.Encode()))
			return
		}
		switch h.Op {
		case blockstore.OpReplicate:
			s.serveWrite(p, qp, h, payload)
		case blockstore.OpFetch:
			s.serveRead(p, qp, h)
		default:
			reply := blockstore.Header{Op: blockstore.OpReplicateReply, ReqID: h.ReqID, Status: blockstore.StatusError}
			p.Wait(qp.Send(reply.Encode()))
		}
	})
}

func (s *Server) serveWrite(p *sim.Proc, qp *rdma.QP, h blockstore.Header, payload []byte) {
	s.Writes++
	status := blockstore.StatusOK
	// CRC==0 means the sender had no checksum to offer (read-repair and
	// other middle-tier-internal traffic): integrity is then enforced by
	// the version guard, not a CRC it never carried.
	if s.Verify && h.Flags&blockstore.FlagCompressed != 0 && h.CRC != 0 {
		if orig, err := lz4.DecodeFrame(payload); err != nil || lz4.Checksum(orig) != h.CRC {
			status = blockstore.StatusCorrupt
		}
	}
	if status == blockstore.StatusOK {
		key := BlockKey{SegmentID: h.SegmentID, ChunkID: h.ChunkID, BlockOff: h.BlockOff}
		s.diskWrite(p, float64(len(payload)))
		s.store.AppendVersioned(key, payload, h.Flags, h.Version)
	}
	reply := blockstore.Header{Op: blockstore.OpReplicateReply, ReqID: h.ReqID, Status: status}
	p.Wait(qp.Send(reply.Encode()))
}

func (s *Server) serveRead(p *sim.Proc, qp *rdma.QP, h blockstore.Header) {
	s.Reads++
	key := BlockKey{SegmentID: h.SegmentID, ChunkID: h.ChunkID, BlockOff: h.BlockOff}
	rec, ok := s.store.Lookup(key)
	if !ok {
		s.NotFound++
		reply := blockstore.Header{Op: blockstore.OpFetchReply, ReqID: h.ReqID, Status: blockstore.StatusNotFound}
		p.Wait(qp.Send(reply.Encode()))
		return
	}
	s.diskRead(p, float64(rec.SizeHint))
	reply := blockstore.Header{
		Op:      blockstore.OpFetchReply,
		ReqID:   h.ReqID,
		Status:  blockstore.StatusOK,
		Flags:   rec.Flags,
		Version: rec.WriteVersion,
	}
	if rec.Data == nil {
		// Modeled record: header-only reply with the modeled frame size.
		reply.PayloadLen = rec.SizeHint
		p.Wait(qp.SendSized(reply.Encode(), float64(blockstore.HeaderSize)+float64(rec.SizeHint)))
		return
	}
	p.Wait(qp.Send(blockstore.Message(&reply, rec.Data)))
}
