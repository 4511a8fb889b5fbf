package middletier

import (
	"slices"

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
// replicate header, the error-reply tails, and the client reply;
// placement.go decides who gets each replicate and fetch, and
// replication.go how they are sent and awaited. A design contributes a
// datapath (hostpaths.go for CPU-only and Acc, bf2.go, smartds.go) that
// supplies only what differs.

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

// frame is one message payload as a design holds it: always its size,
// and its bytes when the payload has them. Timing sees only the size,
// so both payload modes run the same calls and schedule the same events.
type frame struct {
	data []byte  // real bytes; empty when modeled
	size float64 // payload bytes on the wire
	// dev is the device-memory buffer holding the payload (SmartDS); own
	// marks a buffer allocated for this request, freed after use.
	dev *device.Buffer
	own bool
	// host marks payload living in host memory rather than where the
	// design keeps request payloads (maintenance output).
	host bool
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
		c.hdr, c.data, c.size, c.msg = hdr, f.data, f.size, blockstore.SizedMessage(hdr, f.data, uint32(f.size))
	}
	return c.msg
}

// request is one in-flight client I/O and its pipeline context.
type request struct {
	hdr blockstore.Header
	// in is the request payload as received; on SmartDS it lives in the
	// receive descriptor's device buffer.
	in frame
	// hostResident counts payload bytes that AAMS placed in host memory
	// because the configured split exceeds the header (ablation only);
	// they must be fetched back before device-side compression.
	hostResident float64

	qp   *rdma.QP   // middle-tier side of the client connection
	path int        // port index storage traffic leaves from
	core *host.Core // core that parsed the request (reused by software codecs)
	tid  uint64
	tr   *trace.Tracer // nil when the request is not sampled

	// SmartDS descriptor slot, rearmed once the payload is consumed.
	conn     *sdsClientConn
	slot     int
	reposted bool

	prefetch uint64 // the codec's ticket for payload, 0 when none was filed
}

// parseRequest extracts the request from an incoming message. Modeled
// traffic carries a real 64-byte header with the payload size implied
// by the message size.
func parseRequest(m *rdma.Message) (request, bool) {
	h, err := blockstore.Decode(m.Data)
	if err != nil {
		return request{}, false
	}
	return request{hdr: h, in: frame{data: m.Data[blockstore.HeaderSize:], size: m.Size - blockstore.HeaderSize}}, true
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
	s.prefetch(r)
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
	s.codec.Forget(r.in.data, r.prefetch)
	*r = request{}
	s.freeReqs = append(s.freeReqs, r)
}

// prefetch hands a write's payload to the codec as soon as the middle
// tier holds it, at the level its compress stage will use unless the
// adaptive-effort policy picks another, so a helper core may encode it
// while the event loop simulates everything up to that stage. Only
// designs whose writes queue before their functional encode do so:
// CPU-only encodes after its core's compress time and BF2 after the
// Arm cores' parse queue, while Acc and SmartDS encode right after a
// short parse, too soon for a helper to have started. Bypass writes
// and modeled payloads are never compressed. The codec verifies bytes
// and level before it uses a prefetched result, so what a request gets
// never depends on whether or when a helper ran.
func (s *Server) prefetch(r *request) {
	kind := s.cfg.Kind
	if kind != CPUOnly && kind != BF2 || len(r.in.data) == 0 ||
		r.hdr.Op != blockstore.OpWrite || r.hdr.Flags&blockstore.FlagLatencySensitive != 0 {
		return
	}
	level := s.cfg.Level
	if kind == CPUOnly {
		level = validLevel(lz4.Level(max(r.hdr.Level, uint8(level)))) // the CPU-only compress level
	}
	r.prefetch = s.codec.Prefetch(r.in.data, level)
}

// serve runs one client request through the pipeline: the parse stage,
// then the write or read path. Ops other than write and read are
// ignored.
func (s *Server) serve(p *sim.Proc, r *request) {
	if r.hdr.Op != blockstore.OpWrite && r.hdr.Op != blockstore.OpRead {
		return
	}
	r.tid = TraceID(r.hdr.VMID, r.hdr.ReqID)
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
	s.BytesIn += r.in.size
	stageBegin(tr, p.Now(), "mt", "compress", tid)
	var f frame
	var flags uint8
	var err error
	if r.hdr.Flags&blockstore.FlagLatencySensitive != 0 {
		s.BypassHits++
		f = r.in
	} else {
		f, flags, err = s.dp.compress(p, r)
	}
	tr.End(p.Now(), "mt", "compress", tid)

	status, stored := blockstore.StatusError, 0
	if err == nil {
		stageBegin(tr, p.Now(), "mt", "replicate", tid)
		s.nextVer++
		status, stored = s.replicate(p, r, blockstore.Header{
			Op: blockstore.OpReplicate, Flags: flags,
			VMID: r.hdr.VMID, SegmentID: r.hdr.SegmentID,
			ChunkID: r.hdr.ChunkID, BlockOff: r.hdr.BlockOff,
			OrigLen: uint32(r.in.size), CRC: r.hdr.CRC, Version: s.nextVer,
		}, f)
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

// serveRead fetches the block from its read targets (placement.go),
// decompresses it, and returns it to the client. Every failure becomes
// an error reply: no reachable replica (StatusError), a non-OK fetch
// (its status), or a frame that fails to decode (StatusCorrupt).
func (s *Server) serveRead(p *sim.Proc, r *request) {
	tr, tid := r.tr, r.tid
	var buf [4]int // read quorums of up to 7 replicas pick without allocating
	targets := s.place.readTargets(buf[:0], keyOf(r.hdr))
	if targets == nil {
		s.Unroutable++
		s.replyRead(p, r, nil, blockstore.StatusError, frame{})
		return
	}
	stageBegin(tr, p.Now(), "mt", "fetch", tid)
	pr := s.fetch(p, r, targets)
	s.dp.poll(p, 1)
	tr.End(p.Now(), "mt", "fetch", tid)
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

// storedBlock decodes a fetched stored frame into the block it holds:
// a raw frame is the block, a modeled compressed one a block of the
// configured size. A frame that fails to decode yields StatusCorrupt
// and the size its header claims, if readable.
func (s *Server) storedBlock(pr *pendingReq) (frame, blockstore.Status) {
	block := frame{size: float64(s.cfg.BlockSize)}
	switch {
	case pr.hdr.Flags&blockstore.FlagCompressed == 0:
		return pr.f, blockstore.StatusOK
	case len(pr.f.data) == 0:
		return block, blockstore.StatusOK
	}
	if data, err := lz4.DecodeFrame(pr.f.data); err == nil {
		return frame{data: data, size: float64(len(data))}, blockstore.StatusOK
	}
	if fi, err := lz4.ParseFrameHeader(pr.f.data); err == nil {
		block.size = float64(fi.OrigSize)
	}
	return block, blockstore.StatusCorrupt
}

// compressFrame encodes r's payload at level into its stored frame,
// built in place in buf (lz4.CompressBound bytes of the payload), and
// returns it with comp, the encoder output length engines are charged
// for. It is the only place a compressed frame gets its sizes: comp is
// size/modelRatio for a modeled payload, which is not encoded, and the
// frame length is lz4.FrameInPlace's: header plus comp, or plus the raw
// payload when comp is not smaller.
func (s *Server) compressFrame(r *request, buf []byte, level lz4.Level) (frame, float64, error) {
	var data []byte
	comp := r.in.size / modelRatio
	if len(r.in.data) > 0 {
		n, err := s.codec.Compress(buf, r.in.data, validLevel(level))
		if err != nil {
			return frame{}, 0, err
		}
		data, comp = buf[:lz4.FrameInPlace(buf, r.in.data, n)], float64(n)
	}
	if rec, ok := s.replay[r.tid]; ok && len(data) == 0 {
		comp = rec
	} else if s.replay != nil {
		s.replay[r.tid] = comp
	}
	return frame{data: data, size: lz4.FrameHeaderSize + min(comp, r.in.size)}, comp, nil
}

// ownFrame is compressFrame through the server's scratch buffer, with
// the frame's bytes copied out to a slice of their own: the frame is
// sent on after the next write has reused the scratch.
func (s *Server) ownFrame(r *request, level lz4.Level) (frame, float64, error) {
	if n := lz4.CompressBound(len(r.in.data)); len(s.encBuf) < n {
		s.encBuf = make([]byte, n)
	}
	f, comp, err := s.compressFrame(r, s.encBuf, level)
	f.data = slices.Clone(f.data)
	return f, comp, err
}

// validLevel maps an invalid level to the default, as the software
// paths compress.
func validLevel(level lz4.Level) lz4.Level {
	if !level.Valid() {
		return lz4.LevelDefault
	}
	return level
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
