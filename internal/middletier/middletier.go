// Package middletier implements the four middle-tier server designs
// the paper compares (Figure 1):
//
//   - CPUOnly: plain RDMA NIC; the host CPU parses headers and runs
//     software LZ4; every byte crosses PCIe and host memory.
//   - Accel: NIC + PCIe FPGA compression card (U280-like); the CPU
//     still controls every message, payloads cross PCIe twice more.
//   - BF2: SoC SmartNIC (BlueField-2-like); Arm cores parse, an
//     on-board 40 Gbps engine compresses, nothing touches the host.
//   - SmartDS: the paper's contribution; AAMS splits each message so
//     only 64-byte headers reach the host while per-port 100 Gbps
//     engines compress payloads in device memory (internal/core).
//
// All four serve the same protocol (internal/blockstore): write
// requests are compressed (unless latency-sensitive), replicated to
// three storage servers, acknowledged to the client; read requests
// fetch, decompress, and return the block. Maintenance services (LSM
// compaction, garbage collection, snapshots) run alongside.
package middletier

import (
	"fmt"
	"slices"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/core"
	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/host"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/storage"
	"github.com/disagg/smartds/internal/trace"
)

// Kind selects the middle-tier design.
type Kind int

// The four designs of Figure 1.
const (
	CPUOnly Kind = iota
	Accel
	BF2
	SmartDS
)

var kindNames = [...]string{CPUOnly: "CPU-only", Accel: "Acc", BF2: "BF2", SmartDS: "SmartDS"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind maps a design name to its Kind: cpu | cpu-only, acc |
// accel, bf2, smartds | sds.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "cpu", "cpu-only":
		return CPUOnly, nil
	case "acc", "accel":
		return Accel, nil
	case "bf2":
		return BF2, nil
	case "smartds", "sds":
		return SmartDS, nil
	}
	return CPUOnly, fmt.Errorf("middletier: unknown design %q (have cpu, acc, bf2, smartds)", s)
}

// Config parameterizes a middle-tier server.
type Config struct {
	Kind    Kind
	Workers int // host CPU cores serving I/O (x-axis of Figure 7)
	Ports   int // network ports (SmartDS-N; BF2 has 2; others 1)

	Level lz4.Level // compression effort for non-bypass writes
	// AdaptiveEffort implements the paper's §2.2.1 policy: idle
	// compressors spend more effort (better ratio), loaded ones fall
	// back to the fastest level. Level is then the mid-load setting.
	AdaptiveEffort bool
	Replicas       int // write replication factor (3 in the paper)
	BlockSize      int // I/O block size (4 KB)

	// ReplicateTimeout bounds how long a write waits for its replication
	// fan-out before re-issuing it against a refreshed healthy replica
	// set — without it, a replica that crashes with the fan-out in
	// flight strands the client's window slot forever (the dead server
	// never replies). Zero disables the timeout (the default: healthy
	// clusters keep the seed behavior exactly); fault campaigns and the
	// failover tests enable it.
	ReplicateTimeout float64

	// Protocol selects the replication protocol (replication.go): primary
	// fan-out (the default, the seed behavior), chain, or ABD-style
	// quorum. It is orthogonal to Kind — every design runs every
	// protocol.
	Protocol Protocol

	// DDIO mirrors the BIOS toggle for the Accel baseline (Fig. 8).
	DDIO bool

	PortRate  float64
	CPU       host.CPUConfig
	Mem       mem.Config
	PCIe      pcie.Config
	Transport rdma.Config

	// SDSEngineRate overrides the per-port SmartDS engine throughput
	// (default 100 Gbps; the engine-rate ablation sweeps it).
	SDSEngineRate float64

	// SmartDSInflight is the recv-descriptor pool depth per client
	// connection.
	SmartDSInflight int
	// SplitBytes is how many leading bytes of each message AAMS places
	// in host memory (64 = just the block-storage header; the ablation
	// benches sweep it up to the whole message, which degenerates into
	// the accelerator baseline's PCIe cost). Values other than the
	// header size imply modeled payloads.
	SplitBytes int
	// HBM overrides the SmartDS device memory (tests shrink it).
	HBM device.MemoryConfig

	// Trace, when set, records per-stage request spans (parse, compress,
	// replicate, ack, ...) in virtual time. Nil disables tracing.
	Trace *trace.Tracer
}

// Fixed parameters of the testbed hardware and the payload model.
const (
	// modelRatio is the compression ratio assumed for modeled payloads
	// (the corpus's Silesia-like LZ4 ratio).
	modelRatio = 2.1
	// bufferLifetime drives the retained-working-set DDIO computation
	// (§3.2 measures ~32 ms).
	bufferLifetime = 32e-3
	// accelEngineRate is the U280 card's compression throughput.
	accelEngineRate = 12.5e9
	// bf2EngineRate is the SoC's compression engine (~40 Gbps); its
	// DRAM runs at bf2MemRate (§3.4: two weak DDR channels), and each
	// Arm core parses a request in bf2ParseTime.
	bf2EngineRate = 5e9
	bf2MemRate    = 19e9
	bf2ParseTime  = 600e-9
)

// DefaultConfig returns the paper's testbed parameters for a kind.
func DefaultConfig(kind Kind) Config {
	cfg := Config{
		Kind:            kind,
		Workers:         2,
		Ports:           1,
		Level:           lz4.LevelDefault,
		Replicas:        3,
		BlockSize:       4096,
		DDIO:            true,
		PortRate:        12.5e9,
		CPU:             host.DefaultCPUConfig(),
		Mem:             mem.DefaultConfig(),
		PCIe:            pcie.DefaultConfig(),
		Transport:       rdma.DefaultConfig(),
		SmartDSInflight: 64,
		SplitBytes:      blockstore.HeaderSize,
		HBM:             device.DefaultHBM(),
	}
	switch kind {
	case BF2:
		cfg.Ports = 2
	case SmartDS:
		cfg.Ports = 1
	}
	return cfg
}

// pendingReq tracks one fan-out to storage servers: a replicate hop, a
// fetch, a read repair or a compaction run.
type pendingReq struct {
	id        uint64
	remaining int // replies still outstanding
	// need is how many more OK acks make the fan-out a success. Primary
	// fan-out and single fetches start it at the reply count (all
	// replies must be OK); the quorum protocol starts it at the write
	// quorum, so the fan-out completes — and is unregistered, making
	// later minority acks stale by construction — the moment the quorum
	// is met.
	need   int
	done   *sim.Event
	status blockstore.Status
	f      frame // fetch replies: the stored frame
	hdr    blockstore.Header
	// release, when set, returns the receive descriptor holding the
	// fetched payload (SmartDS read path).
	release func()

	// The straggler decision (critpath), for replicate hops: replicate
	// stamps the hop's members (set, by replica slot) and when their
	// sends were posted; completePending stamps decider, the slot of the
	// reply that completed a multi-member hop, -1 until then.
	set     []int
	sentAt  float64
	decider int
}

// releaseDesc returns the receive descriptor holding a fetched payload,
// at most once.
func (pr *pendingReq) releaseDesc() {
	if release := pr.release; release != nil {
		pr.release = nil
		release()
	}
}

// Server is one middle-tier server of the configured kind.
type Server struct {
	env    *sim.Env
	cfg    Config
	fabric *netsim.Fabric

	// dp is the design's data plane behind the shared request pipeline
	// (pipeline.go); freeReqs recycles request contexts.
	dp       datapath
	freeReqs []*request
	// codec is the functional LZ4 encoder of every software path and
	// hardware engine of this server. The pipeline prefetches each
	// write's payload into it on arrival (see prefetch).
	codec  *lz4.Lookahead
	encBuf []byte // compressFrame's scratch
	// replay is the modeled-replay differential test's seam, nil outside
	// it (export_test.go): a functional compression records its length
	// under the request's trace id, and a modeled one takes it from there.
	replay map[uint64]float64

	// Host resources (unused by BF2's data path but always present:
	// the machine still exists).
	Mem   *mem.System
	cpu   *host.Pool
	cores []*host.Core
	rr    int

	// Design hardware the accessors expose: the host NIC and the Acc
	// card's link (CPUOnly/Accel), the SmartDS card, the on-card memory
	// (BF2 SoC DRAM or SmartDS HBM), the RDMA stacks terminating client
	// and storage traffic (one per path), and the hardware compression
	// engines (the BF2 SoC engine, or SmartDS's per-port engines). The
	// datapath constructors set them.
	nic       *host.NIC
	accelPCIe *pcie.Link
	sds       *core.Device
	cardMem   *device.Memory
	stacks    []*rdma.Stack
	engines   []*device.Engine

	// Replication connections: storagePaths[path][replica].
	storagePaths [][]*rdma.QP
	// place owns the chunk -> server mapping and the down flags
	// (placement.go).
	place placer

	pending map[uint64]*pendingReq
	nextRep uint64

	// nextVer is the writer-assigned block version counter: every write
	// takes one before its fan-out, and every retry attempt re-sends it,
	// so storage servers refuse regressions, treat retries as the same
	// write, and quorum reads can rank replicas.
	nextVer uint64
	// storageServers mirrors ConnectStorage's argument for chunk
	// backfill after replica substitution.
	storageServers []*storage.Server

	// engineDown marks failed compression engines: index 0 for the
	// Accel card and the BF2 SoC engine, per-port for SmartDS.
	engineDown []bool

	// Counters.
	WritesDone  uint64
	ReadsDone   uint64
	BypassHits  uint64
	BytesIn     float64
	BytesStored float64

	// Failure-handling counters (degraded-mode behavior the fault
	// campaigns and failover tests assert on).
	Degraded         uint64  // writes placed on fewer than cfg.Replicas servers
	Unroutable       uint64  // requests with no healthy replica at all
	ReplicateRetries uint64  // replication fan-outs re-issued after timeout
	RetryBytes       float64 // payload bytes re-sent by those retries
	EngineFallbacks  uint64  // writes stored raw because an engine was down
	EngineReroutes   uint64  // SmartDS writes compressed by a surviving port's engine
	RebuildBytes     float64 // stored bytes streamed rebuilding crashed servers
	StaleAcks        uint64  // storage acks arriving after their fan-out completed or was abandoned
	ReadRepairs      uint64  // stale replicas rewritten by quorum reads
	RepairBytes      float64 // frame bytes those read-repairs pushed
	BackfillBytes    float64 // stored chunk bytes copied onto substituted replicas

	// StragglerAcks[i] counts multi-replica fan-outs whose deciding ack
	// — the one the middle tier actually waited for — came from replica
	// slot i of the fan-out set. A skewed distribution means one
	// placement position consistently drags the write path, visible
	// without tracing enabled.
	StragglerAcks []uint64

	clientLocals []*rdma.QP // middle-tier side of each client connection
}

// New builds a middle-tier server of cfg.Kind attached to the fabric.
func New(env *sim.Env, fabric *netsim.Fabric, cfg Config) *Server {
	def := DefaultConfig(cfg.Kind)
	orDefault(&cfg.Workers, def.Workers)
	orDefault(&cfg.Ports, def.Ports)
	if cfg.Level == 0 {
		cfg.Level = def.Level
	}
	orDefault(&cfg.Replicas, def.Replicas)
	orDefault(&cfg.BlockSize, def.BlockSize)
	orDefault(&cfg.PortRate, def.PortRate)
	orDefault(&cfg.SmartDSInflight, def.SmartDSInflight)
	orDefault(&cfg.SplitBytes, def.SplitBytes)
	cfg.Mem.DDIOEnabled = cfg.DDIO

	s := &Server{
		env:        env,
		cfg:        cfg,
		fabric:     fabric,
		Mem:        mem.New(env, cfg.Mem),
		cpu:        host.NewPool(env, cfg.CPU),
		pending:    make(map[uint64]*pendingReq),
		engineDown: make([]bool, cfg.Ports),
		codec:      lz4.NewLookahead(cfg.BlockSize),
	}
	s.StragglerAcks = make([]uint64, cfg.Replicas)
	for i := 0; i < cfg.Workers; i++ {
		c, err := s.cpu.Claim()
		if err != nil {
			panic(fmt.Sprintf("middletier: cannot claim %d cores: %v", cfg.Workers, err))
		}
		s.cores = append(s.cores, c)
	}

	switch cfg.Kind {
	case CPUOnly, Accel:
		s.dp = newHostPath(s)
	case BF2:
		s.dp = newBF2Path(s)
	case SmartDS:
		s.dp = newSDSPath(s)
	default:
		panic(fmt.Sprintf("middletier: unknown kind %d", cfg.Kind))
	}
	return s
}

// Quiesce stops the host-side compression helpers: it waits for every
// block a helper is encoding and drops every prefetch still queued.
// Simulated state is untouched (a dropped block is encoded inline when
// its write reaches the compress stage), so callers run it whenever
// the simulation pauses and host time is measured. Helpers park
// between writes until Quiesce, so a caller done with the server must
// call it.
func (s *Server) Quiesce() { s.codec.Stop() }

// CodecStats returns the host-side compression helpers' counters.
func (s *Server) CodecStats() lz4.LookaheadStats { return s.codec.Stats() }

// orDefault replaces a non-positive setting with its default.
func orDefault[T ~int | ~float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Config returns the server's effective configuration.
func (s *Server) Config() Config { return s.cfg }

// NIC exposes the host NIC (CPUOnly/Accel) for bandwidth snapshots.
func (s *Server) NIC() *host.NIC { return s.nic }

// AccelPCIe exposes the accelerator card's link (Accel).
func (s *Server) AccelPCIe() *pcie.Link { return s.accelPCIe }

// Device exposes the SmartDS card (SmartDS).
func (s *Server) Device() *core.Device { return s.sds }

// InflightFanouts reports how many client requests currently have
// replication fan-outs outstanding toward storage — the instantaneous
// fan-out depth the telemetry sampler records.
func (s *Server) InflightFanouts() int { return len(s.pending) }

// Engines returns the hardware compression engines of this design in
// stable index order: the BF2 SoC engine, or SmartDS's per-port
// engines. CPUOnly/Accel (software or slot-modeled compression) return
// nil.
func (s *Server) Engines() []*device.Engine { return slices.Clone(s.engines) }

// DeviceMemory returns the on-card memory of this design — the BF2
// SoC DRAM or the SmartDS HBM. Designs without a card memory (CPUOnly,
// Accel) return nil.
func (s *Server) DeviceMemory() *device.Memory { return s.cardMem }

// TransportStacks returns every RDMA stack terminating client or
// storage traffic on this server, in stable port order: the host NIC's
// stack (CPUOnly/Accel), the BF2 SoC stacks, or SmartDS's per-port
// instance stacks.
func (s *Server) TransportStacks() []*rdma.Stack { return slices.Clone(s.stacks) }

// NetPorts returns the fabric ports behind TransportStacks, in the
// same order.
func (s *Server) NetPorts() []*netsim.Port {
	out := make([]*netsim.Port, 0, len(s.stacks))
	for _, st := range s.stacks {
		out = append(out, st.Port())
	}
	return out
}

// effortTimeFactor scales software compression time by level: deeper
// match searches cost more core time (LZ4 -> LZ4HC-like growth).
func effortTimeFactor(level lz4.Level) float64 {
	switch {
	case level <= lz4.LevelFast:
		return 0.8
	case level <= lz4.LevelDefault:
		return 1.0
	case level <= lz4.LevelHigh:
		return 2.0
	default:
		return 4.0
	}
}

// chooseLevel applies the adaptive-effort policy given the local
// compressor's queue length.
func (s *Server) chooseLevel(queueLen int) lz4.Level {
	if !s.cfg.AdaptiveEffort {
		return s.cfg.Level
	}
	switch {
	case queueLen == 0:
		return lz4.LevelHigh
	case queueLen < 4:
		return s.cfg.Level
	default:
		return lz4.LevelFast
	}
}

// nextCore rotates across the claimed worker cores.
func (s *Server) nextCore() *host.Core {
	c := s.cores[s.rr%len(s.cores)]
	s.rr++
	return c
}

// begin registers a fan-out of `replies` replies that succeeds at
// `need` OK acks (need == replies: every reply must be OK).
func (s *Server) begin(replies, need int) *pendingReq {
	s.nextRep++
	pr := &pendingReq{id: s.nextRep, remaining: replies, need: need,
		done: s.env.NewEvent(), status: blockstore.StatusOK, decider: -1}
	s.pending[pr.id] = pr
	return pr
}

// fanOut registers one fan-out to members that completes at need OK
// acks and sends hdr, tagged with its id, plus f to each member out of
// path. Replicate hops, fetches, read repairs and compaction runs all
// go out through it; a caller that waits for the replies does so with
// awaitAck. ok is false when a frame could not be staged for
// transmission: the fan-out is then unregistered, and the members after
// the failed send were not sent to.
func (s *Server) fanOut(p *sim.Proc, path int, members []int, need int, hdr blockstore.Header, f frame) (pr *pendingReq, ok bool) {
	pr = s.begin(len(members), need)
	hdr.ReqID = pr.id
	for _, idx := range members {
		if s.dp.send(p, path, s.storagePaths[path][idx], hdr, f) == nil {
			delete(s.pending, pr.id)
			return pr, false
		}
	}
	return pr, true
}

// awaitAck waits for a fan-out to complete, bounded by the replicate
// timeout when one is set. On timeout it unregisters the fan-out, so
// late replies count as stale, and returns false.
func (s *Server) awaitAck(p *sim.Proc, pr *pendingReq) bool {
	if s.cfg.ReplicateTimeout <= 0 {
		p.Wait(pr.done)
		return true
	}
	if _, ok := p.WaitTimeout(pr.done, s.cfg.ReplicateTimeout); ok {
		return true
	}
	delete(s.pending, pr.id)
	return false
}

// completePending records one reply for a fan-out. A reply whose id is
// unknown — its fan-out already completed (e.g. the write quorum was
// met without it) or was abandoned by a timed-out attempt — is a stale
// ack: it is counted and dropped, and can never complete a different
// (e.g. retried) fan-out, because every attempt registers a fresh id.
//
// from is the global storage-server index the reply arrived from (-1
// when unknown). Reply headers carry no sender identity — it is the
// per-connection receive closure, bound at ConnectStorage time, that
// knows which server a reply came down from. The reply that completes
// a multi-member replicate hop is by definition the slowest one the
// protocol still had to wait for, so its replica slot is the hop's
// straggler and counts in StragglerAcks.
func (s *Server) completePending(repID uint64, from int, st blockstore.Status, f frame, hdr blockstore.Header) {
	pr, ok := s.pending[repID]
	if !ok {
		s.StaleAcks++
		return
	}
	if st == blockstore.StatusOK {
		pr.need--
	} else {
		pr.status = st
	}
	pr.f, pr.hdr = f, hdr
	pr.remaining--
	if pr.need <= 0 {
		// Enough OK acks: the fan-out succeeds even if a minority
		// errored. Unregistering it here is what makes the remaining
		// stragglers stale.
		pr.status = blockstore.StatusOK
	} else if pr.remaining > 0 {
		return
	}
	delete(s.pending, repID)
	if len(pr.set) > 1 {
		if pr.decider = slices.Index(pr.set, from); pr.decider >= 0 && pr.decider < len(s.StragglerAcks) {
			s.StragglerAcks[pr.decider]++
		}
	}
	pr.done.Trigger(nil)
}

// onStorageReplyFrom routes replicate/fetch replies back to their
// pending fan-outs. from is the global storage-server index the
// owning connection is wired to (straggler attribution). Used by the
// host and BF2 datapaths; SmartDS routes through recv descriptors
// (see smartds.go).
func (s *Server) onStorageReplyFrom(from int, m *rdma.Message) {
	h, err := blockstore.Decode(m.Data)
	if err == nil && (h.Op == blockstore.OpReplicateReply || h.Op == blockstore.OpFetchReply) {
		s.completePending(h.ReqID, from, h.Status, frame{data: m.Data[blockstore.HeaderSize:], size: float64(h.PayloadLen)}, h)
	}
}

// TraceID builds the cluster-wide span correlation id for one client
// request: the issuing VM in the high bits, the per-VM request id
// below. Clients and every middle-tier design derive the same value
// from the header, so one request's spans line up across components.
func TraceID(vmID, reqID uint64) uint64 { return vmID<<48 ^ reqID }

// ConnectStorage wires the server to its storage back ends. For
// multi-port designs every port gets its own QP set so replication
// traffic exits the port the request arrived on.
func (s *Server) ConnectStorage(servers []*storage.Server) {
	s.storageServers = servers
	s.place = newPlacer(len(servers), s.cfg.Replicas, s.cfg.Protocol)
	s.storagePaths = make([][]*rdma.QP, len(s.stacks))
	for pi := range s.storagePaths {
		for si, srv := range servers {
			// Each connection's receive handler is bound to the server index
			// it is wired to: replies carry no sender identity, so this is
			// where straggler attribution learns which replica answered.
			local := s.dp.storageQP(pi, si)
			remote := srv.AcceptQP()
			rdma.Connect(local, remote)
			s.storagePaths[pi] = append(s.storagePaths[pi], local)
		}
	}
}

// noteWait records a completed replicate hop's straggler wait on r's
// trace: from the hop's sends being posted until now, when the deciding
// ack woke the write, the middle tier was blocked on the slowest
// awaited replica, not doing work. The span is a wait child of
// mt/replicate in the request DAG; its detail names the straggler so a
// p999 drill-down can say which replica dragged.
func (s *Server) noteWait(p *sim.Proc, r *request, pr *pendingReq) {
	if r.tr == nil || p.Now() <= pr.sentAt {
		return
	}
	detail := ""
	if pr.decider >= 0 {
		detail = fmt.Sprintf("straggler replica=%d server=%d", pr.decider, pr.set[pr.decider])
	}
	r.tr.Span(pr.sentAt, p.Now(), "mt", "replicate.wait", r.tid, r.tid,
		"mt", "replicate", trace.KindWait, detail)
}

// ConnectClient attaches one client (VM storage agent): the returned
// QP is the client's side, ready to send requests. Connections are
// spread across ports round-robin.
func (s *Server) ConnectClient(peer *rdma.Stack) *rdma.QP {
	clientQP := peer.CreateQP()
	local := s.dp.clientQP(len(s.clientLocals))
	rdma.Connect(clientQP, local)
	s.clientLocals = append(s.clientLocals, local)
	return clientQP
}
