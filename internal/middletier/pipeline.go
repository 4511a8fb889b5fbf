package middletier

import (
	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/host"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// This file is the one request pipeline every design serves through.
// Per the paper's Figure 1 the four designs speak the same block
// protocol and differ only in where payload bytes live and which engine
// touches them, so serveWrite/serveRead own everything protocol-shaped:
// stage spans, the bypass decision, counters, version stamping, the
// replicate header, quorum-vs-single fetch, the error-reply tails, and
// the client reply. A design contributes a datapath (hostpaths.go for
// CPU-only and Acc, bf2.go, smartds.go) that supplies only what differs.

// datapath is one middle-tier design's data plane.
type datapath interface {
	// parse charges the parse stage for one request (core time; BF2 also
	// writes the inbound message into SoC DRAM) and records the core
	// that parsed it when later stages reuse it.
	parse(p *sim.Proc, r *request)
	// compress turns a non-bypass write payload into its stored frame
	// and flags. A design whose engine is down stores the raw payload
	// (counting EngineFallbacks) or reroutes to a surviving engine. An
	// error (resource exhaustion, engine failure) fails the write.
	compress(p *sim.Proc, r *request) (frame, uint8, error)
	// send ships hdr plus frame f to qp out of the given path (port
	// index) and returns the transmit-completion event. Replicate,
	// fetch, repair, maintenance and client-reply messages all go
	// through it. It returns nil only when the frame could not be
	// staged for transmission (SmartDS out of HBM for a repair frame).
	send(p *sim.Proc, path int, qp *rdma.QP, hdr blockstore.Header, f frame) *sim.Event
	// poll charges the host for handling n transport completions
	// (SmartDS; a no-op where the receive path already paid for them).
	poll(p *sim.Proc, n int)
	// decompress turns a fetched stored frame into the block to return.
	// A non-OK status (StatusCorrupt for an undecodable frame,
	// StatusError for exhaustion) fails the read.
	decompress(p *sim.Proc, r *request, pr *pendingReq) (frame, blockstore.Status)
	// release runs once the client reply was posted with event sent: it
	// frees f when the request owns it and charges any per-request
	// completion work.
	release(p *sim.Proc, r *request, f frame, sent *sim.Event)
	// clientQP builds the middle-tier side of client connection conn.
	clientQP(conn int) *rdma.QP
	// storageQP builds the middle-tier side of the connection from path
	// to storage server from (the reply handler's sender identity).
	storageQP(path, from int) *rdma.QP
}

// frame is one message payload as a design holds it.
type frame struct {
	data []byte  // real bytes; nil when modeled
	size float64 // payload bytes on the wire
	// dev is the device-memory buffer holding the payload (SmartDS); own
	// marks a buffer allocated for this request, freed after use.
	dev *device.Buffer
	own bool
	// host marks payload living in host memory rather than where the
	// design keeps request payloads (maintenance output).
	host bool
}

// wire encodes hdr followed by f's bytes (or the header alone, carrying
// the modeled length, when f is modeled).
func wire(hdr blockstore.Header, f frame) []byte {
	if f.data != nil {
		return blockstore.Message(&hdr, f.data)
	}
	hdr.PayloadLen = uint32(f.size)
	return hdr.Encode()
}

// wireCache reuses the last encoded message when the same header and
// frame go out again: a fan-out sends one message to every replica, and
// sent bytes are never mutated, so the replicas share one encoding.
type wireCache struct {
	hdr  blockstore.Header
	data []byte
	size float64
	msg  []byte
}

func (c *wireCache) encode(hdr blockstore.Header, f frame) []byte {
	same := len(f.data) == len(c.data) && (len(f.data) == 0 || &f.data[0] == &c.data[0])
	if c.msg == nil || !same || hdr != c.hdr || f.size != c.size { //detcheck:floateq cache key: the same size value passed again, never computed
		c.hdr, c.data, c.size, c.msg = hdr, f.data, f.size, wire(hdr, f)
	}
	return c.msg
}

// request is one in-flight client I/O and its pipeline context.
type request struct {
	hdr     blockstore.Header
	payload []byte  // real block bytes (nil when modeled-only)
	size    float64 // modeled payload size
	// hostResident counts payload bytes that AAMS placed in host memory
	// because the configured split exceeds the header (ablation only);
	// they must be fetched back before device-side compression.
	hostResident float64
	dev          *device.Buffer // SmartDS: the receive descriptor's payload buffer

	qp   *rdma.QP   // middle-tier side of the client connection
	path int        // port index storage traffic leaves from
	core *host.Core // core that parsed the request (reused by software codecs)
	tid  uint64
	tr   *trace.Tracer // nil when the request is not sampled

	// SmartDS descriptor slot, rearmed once the payload is consumed.
	conn     *sdsClientConn
	slot     int
	reposted bool
}

// raw is the request payload as received, stored uncompressed.
func (r *request) raw() frame { return frame{data: r.payload, size: r.size, dev: r.dev} }

// parseRequest extracts the request from an incoming message. Modeled
// traffic carries a real 64-byte header with the payload size implied
// by the message size.
func parseRequest(m *rdma.Message) (request, bool) {
	if m.Data == nil || len(m.Data) < blockstore.HeaderSize {
		return request{}, false
	}
	h, err := blockstore.Decode(m.Data)
	if err != nil {
		return request{}, false
	}
	req := request{hdr: h, size: m.Size - blockstore.HeaderSize}
	if len(m.Data) > blockstore.HeaderSize {
		req.payload = m.Data[blockstore.HeaderSize:]
		req.size = float64(len(req.payload))
	}
	return req, true
}

// recv serves one client message that arrived whole on qp (host NIC or
// BF2 port path) in a fresh proc named name.
func (s *Server) recv(name string, qp *rdma.QP, path int, m *rdma.Message) {
	req, ok := parseRequest(m)
	if !ok {
		return
	}
	r := s.newRequest()
	*r = req
	r.qp, r.path = qp, path
	s.env.Go(name, func(p *sim.Proc) {
		s.serve(p, r)
		s.freeRequest(r)
	})
}

// newRequest takes a request context from the free list. Procs run one
// at a time and a context is recycled only after its request finished,
// so the pipeline allocates none per request.
func (s *Server) newRequest() *request {
	if n := len(s.freeReqs); n > 0 {
		r := s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
		return r
	}
	return new(request)
}

func (s *Server) freeRequest(r *request) {
	*r = request{}
	s.freeReqs = append(s.freeReqs, r)
}

// serve runs one client request through the pipeline: the parse stage,
// then the write or read path. Ops other than write and read are
// ignored.
func (s *Server) serve(p *sim.Proc, r *request) {
	if r.hdr.Op != blockstore.OpWrite && r.hdr.Op != blockstore.OpRead {
		return
	}
	r.tid = traceID(r.hdr)
	// Resolve the head-sampling decision once; an unsampled request gets
	// a nil tracer and every span call below is a free no-op.
	r.tr = s.cfg.Trace.ForRequest(r.tid)
	r.tr.End(p.Now(), "net", "request", r.tid)
	stageBegin(r.tr, p.Now(), "mt", "parse", r.tid)
	s.dp.parse(p, r)
	r.tr.End(p.Now(), "mt", "parse", r.tid)
	if r.hdr.Op == blockstore.OpWrite {
		s.serveWrite(p, r)
	} else {
		s.serveRead(p, r)
	}
}

// serveWrite compresses (unless latency-sensitive), replicates through
// the configured protocol, and acknowledges the client.
func (s *Server) serveWrite(p *sim.Proc, r *request) {
	tr, tid := r.tr, r.tid
	s.BytesIn += r.size
	stageBegin(tr, p.Now(), "mt", "compress", tid)
	var f frame
	var flags uint8
	var err error
	if r.hdr.Flags&blockstore.FlagLatencySensitive != 0 {
		s.BypassHits++
		f = r.raw()
	} else {
		f, flags, err = s.dp.compress(p, r)
	}
	tr.End(p.Now(), "mt", "compress", tid)

	status, stored := blockstore.StatusError, 0
	if err == nil {
		stageBegin(tr, p.Now(), "mt", "replicate", tid)
		version := s.nextWriteVersion()
		status, stored = s.replicateWait(p, r.hdr, f.size, func(repID uint64, set []int) {
			rh := blockstore.Header{
				Op: blockstore.OpReplicate, Flags: flags, ReqID: repID,
				VMID: r.hdr.VMID, SegmentID: r.hdr.SegmentID,
				ChunkID: r.hdr.ChunkID, BlockOff: r.hdr.BlockOff,
				OrigLen: uint32(r.size), CRC: r.hdr.CRC, Version: version,
			}
			a0 := p.Now()
			for _, idx := range set {
				s.dp.send(p, r.path, s.storagePaths[r.path][idx], rh, f)
			}
			// A frame gathered from device memory (SmartDS's Assemble
			// module) names its replicate self-time as message assembly
			// so blame profiles show the shift across designs.
			if a1 := p.Now(); f.dev != nil && tr != nil && a1 > a0 {
				tr.Span(a0, a1, "mt", "replicate.assemble", tid, tid, "mt", "replicate", trace.KindService, "")
			}
		})
		tr.End(p.Now(), "mt", "replicate", tid)
		stageBegin(tr, p.Now(), "mt", "ack", tid)
		s.dp.poll(p, max(stored, 1))
		tr.End(p.Now(), "mt", "ack", tid)
	}

	stageBegin(tr, p.Now(), "net", "reply", tid)
	sent := s.dp.send(p, r.path, r.qp, blockstore.Header{Op: blockstore.OpWriteReply, ReqID: r.hdr.ReqID, Status: status}, frame{})
	s.dp.release(p, r, f, sent)
	s.WritesDone++
	s.BytesStored += f.size * float64(stored)
}

// serveRead fetches the block (one replica, or a version-ranked read
// quorum), decompresses it, and returns it to the client. Every failure
// becomes an error reply: no reachable replica (StatusError), a non-OK
// fetch (its status), or a frame that fails to decode (StatusCorrupt).
func (s *Server) serveRead(p *sim.Proc, r *request) {
	tr, tid := r.tr, r.tid
	var pr *pendingReq
	if s.cfg.Protocol == ProtoQuorum {
		stageBegin(tr, p.Now(), "mt", "fetch", tid)
		winner, ok := s.quorumFetch(p, r)
		s.dp.poll(p, 1)
		tr.End(p.Now(), "mt", "fetch", tid)
		if !ok {
			s.replyRead(p, r, nil, blockstore.StatusError, frame{})
			return
		}
		pr = winner
	} else {
		idx, ok := s.readReplicaFor(r.hdr)
		if !ok {
			s.replyRead(p, r, nil, blockstore.StatusError, frame{})
			return
		}
		repID, spr := s.begin(1, 1)
		fh := blockstore.Header{
			Op: blockstore.OpFetch, ReqID: repID,
			SegmentID: r.hdr.SegmentID, ChunkID: r.hdr.ChunkID, BlockOff: r.hdr.BlockOff,
		}
		stageBegin(tr, p.Now(), "mt", "fetch", tid)
		s.dp.send(p, r.path, s.storagePaths[r.path][idx], fh, frame{})
		p.Wait(spr.done)
		s.dp.poll(p, 1)
		tr.End(p.Now(), "mt", "fetch", tid)
		pr = spr
	}
	if pr.status != blockstore.StatusOK {
		s.replyRead(p, r, pr, pr.status, frame{})
		return
	}

	stageBegin(tr, p.Now(), "mt", "decompress", tid)
	block, status := s.dp.decompress(p, r, pr)
	if status == blockstore.StatusOK {
		pr.releaseDesc()
	}
	tr.End(p.Now(), "mt", "decompress", tid)
	s.replyRead(p, r, pr, status, block)
}

// storedBlock decodes a fetched stored frame into the block it holds.
// Modeled frames carry sizes only: a raw one its stored size, a
// compressed one the configured block size. A frame that fails to
// decode yields StatusCorrupt and the size its header claims, if
// readable.
func (s *Server) storedBlock(pr *pendingReq) (frame, blockstore.Status) {
	switch compressed := pr.hdr.Flags&blockstore.FlagCompressed != 0; {
	case !compressed && pr.payload != nil:
		return frame{data: pr.payload, size: float64(len(pr.payload))}, blockstore.StatusOK
	case !compressed:
		return frame{size: pr.size}, blockstore.StatusOK
	case pr.payload == nil:
		return frame{size: float64(s.cfg.BlockSize)}, blockstore.StatusOK
	}
	if data, err := lz4.DecodeFrame(pr.payload); err == nil {
		return frame{data: data, size: float64(len(data))}, blockstore.StatusOK
	}
	claimed := frame{size: float64(s.cfg.BlockSize)}
	if fi, err := lz4.ParseFrameHeader(pr.payload); err == nil {
		claimed.size = float64(fi.OrigSize)
	}
	return claimed, blockstore.StatusCorrupt
}

// replyRead answers a read with status and (on success) the block, then
// returns the fetched frame's receive descriptor, if any.
func (s *Server) replyRead(p *sim.Proc, r *request, pr *pendingReq, status blockstore.Status, block frame) {
	stageBegin(r.tr, p.Now(), "net", "reply", r.tid)
	sent := s.dp.send(p, r.path, r.qp, blockstore.Header{Op: blockstore.OpReadReply, ReqID: r.hdr.ReqID, Status: status}, block)
	if pr != nil {
		pr.releaseDesc()
	}
	s.dp.release(p, r, block, sent)
	s.ReadsDone++
}

// stageBegin opens one request-scoped pipeline-stage span: grouped
// into the request's DAG (Req = tid) as a direct service child of the
// client root span.
func stageBegin(tr *trace.Tracer, at float64, component, name string, tid uint64) {
	tr.BeginReq(at, component, name, tid, tid, trace.KindService)
}
