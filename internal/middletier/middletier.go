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
	"github.com/disagg/smartds/internal/evlog"
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
	Replicas       int     // write replication factor (3 in the paper)
	BlockSize      int     // I/O block size (4 KB)
	ModelRatio     float64 // compression ratio assumed for modeled-only payloads

	// ReplicateTimeout bounds how long a write waits for its replication
	// fan-out before re-issuing it against a refreshed healthy replica
	// set — without it, a replica that crashes with the fan-out in
	// flight strands the client's window slot forever (the dead server
	// never replies). Zero disables the timeout (the default: healthy
	// clusters keep the seed behavior exactly); fault campaigns and the
	// failover tests enable it.
	ReplicateTimeout float64

	// Protocol selects the replication protocol (replicator.go): primary
	// fan-out (the default, the seed behavior), chain, or ABD-style
	// quorum. It is orthogonal to Kind — every design runs every
	// protocol.
	Protocol Protocol

	// DDIO mirrors the BIOS toggle for the Accel baseline (Fig. 8).
	DDIO bool
	// BufferLifetime drives the retained-working-set DDIO computation
	// (§3.2 measures ~32 ms).
	BufferLifetime float64

	PortRate  float64
	CPU       host.CPUConfig
	Mem       mem.Config
	PCIe      pcie.Config
	Transport rdma.Config

	// AccelEngineRate is the U280 card's compression throughput.
	AccelEngineRate float64
	// SDSEngineRate overrides the per-port SmartDS engine throughput
	// (default 100 Gbps; the engine-rate ablation sweeps it).
	SDSEngineRate float64
	// BF2EngineRate is the SoC's compression engine (~40 Gbps); its
	// DRAM is BF2MemRate (§3.4: two weak DDR channels).
	BF2EngineRate float64
	BF2MemRate    float64
	BF2ParseTime  float64

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

	// Log, when set, receives structured middle-tier lifecycle events
	// (rebuilds, backfills) as the event log's "mt" component.
	Log *evlog.Logger
}

// DefaultConfig returns the paper's testbed parameters for a kind.
func DefaultConfig(kind Kind) Config {
	cfg := Config{
		Kind:            kind,
		Workers:         2,
		Ports:           1,
		Level:           lz4.LevelDefault,
		Replicas:        3,
		BlockSize:       4096,
		ModelRatio:      2.1,
		DDIO:            true,
		BufferLifetime:  32e-3,
		PortRate:        12.5e9,
		CPU:             host.DefaultCPUConfig(),
		Mem:             mem.DefaultConfig(),
		PCIe:            pcie.DefaultConfig(),
		Transport:       rdma.DefaultConfig(),
		AccelEngineRate: 12.5e9,
		BF2EngineRate:   5e9,
		BF2MemRate:      19e9,
		BF2ParseTime:    600e-9,
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

// pendingReq tracks a fan-out to storage servers (replication) or a
// single fetch.
type pendingReq struct {
	remaining int // replies still outstanding
	expected  int // replies the fan-out was registered with
	// need is how many more OK acks make the fan-out a success. Primary
	// fan-out and single fetches start it at expected (all replies must
	// be OK); the quorum protocol starts it at the write quorum, so the
	// fan-out completes — and is unregistered, making later minority
	// acks stale by construction — the moment the quorum is met.
	need   int
	done   *sim.Event
	status blockstore.Status
	// acks records per-reply statuses in arrival order when the server
	// tracks ack sets (non-primary protocols); replicate-timeout traces
	// embed them (ackset.go) for diagnosis.
	acks    []blockstore.Status
	payload []byte  // fetch replies: the stored frame (real bytes)
	size    float64 // fetch replies: modeled frame size
	hdr     blockstore.Header
	// release, when set, returns the receive descriptor holding the
	// fetched payload (SmartDS read path).
	release func()

	// Straggler attribution (critpath): the replicator stamps the
	// fan-out set and send-complete time, completePending stamps which
	// reply decided the fan-out and when. set[slot] is the global
	// storage-server index of replica slot; deciderSlot is the slot of
	// the deciding (slowest-awaited) ack, -1 until decided.
	set         []int
	sentAt      float64
	decidedAt   float64
	deciderSlot int
	deciderIdx  int // global server index of the deciding ack
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
	engines   []*device.LZ4Engine

	// Replication connections: storagePaths[path][replica].
	storagePaths [][]*rdma.QP
	serverDown   []bool
	numStorage   int
	nextPath     int
	// placement records which storage servers hold each chunk's
	// replicas (the chunk -> server mapping the paper's middle tier
	// owns, §2.1); writes create it, reads consult it, fail-over
	// rewrites it.
	placement map[chunkKey][]int
	readRR    int

	pending map[uint64]*pendingReq
	nextRep uint64

	// rep is the active replication protocol (replicator.go); trackAcks
	// enables per-reply status capture for its trace diagnostics.
	rep       Replicator
	trackAcks bool
	// nextVer is the writer-assigned block version counter: every write
	// gets one version before its fan-out, stable across retry attempts,
	// so storage servers can refuse regressions and quorum reads can
	// rank replicas.
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
	RebuildBytes     float64 // snapshot bytes streamed rebuilding crashed servers
	StaleAcks        uint64  // storage acks arriving after their fan-out completed or was abandoned
	ReadRepairs      uint64  // stale replicas rewritten by quorum reads
	RepairBytes      float64 // frame bytes those read-repairs pushed
	BackfillBytes    float64 // chunk snapshot bytes copied onto substituted replicas

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
	orDefault(&cfg.ModelRatio, def.ModelRatio)
	orDefault(&cfg.BufferLifetime, def.BufferLifetime)
	orDefault(&cfg.PortRate, def.PortRate)
	orDefault(&cfg.AccelEngineRate, def.AccelEngineRate)
	orDefault(&cfg.BF2EngineRate, def.BF2EngineRate)
	orDefault(&cfg.BF2MemRate, def.BF2MemRate)
	orDefault(&cfg.BF2ParseTime, def.BF2ParseTime)
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
		placement:  make(map[chunkKey][]int),
		engineDown: make([]bool, cfg.Ports),
		rep:        newReplicator(cfg.Protocol),
		trackAcks:  cfg.Protocol != ProtoPrimary,
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

// orDefault replaces a non-positive setting with its default.
func orDefault[T ~int | ~float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Config returns the server's effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Kind returns the design variant.
func (s *Server) Kind() Kind { return s.cfg.Kind }

// NIC exposes the host NIC (CPUOnly/Accel) for bandwidth snapshots.
func (s *Server) NIC() *host.NIC { return s.nic }

// AccelPCIe exposes the accelerator card's link (Accel).
func (s *Server) AccelPCIe() *pcie.Link { return s.accelPCIe }

// Device exposes the SmartDS card (SmartDS).
func (s *Server) Device() *core.Device { return s.sds }

// CPUPool exposes the host CPU pool.
func (s *Server) CPUPool() *host.Pool { return s.cpu }

// InflightFanouts reports how many client requests currently have
// replication fan-outs outstanding toward storage — the instantaneous
// fan-out depth the telemetry sampler records.
func (s *Server) InflightFanouts() int { return len(s.pending) }

// Engines returns the hardware compression engines of this design in
// stable index order: the BF2 SoC engine, or SmartDS's per-port
// engines. CPUOnly/Accel (software or slot-modeled compression) return
// nil.
func (s *Server) Engines() []*device.LZ4Engine { return slices.Clone(s.engines) }

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

// begin registers a fan-out of `expected` replies that succeeds at
// `need` OK acks (need == expected: every reply must be OK).
func (s *Server) begin(expected, need int) (uint64, *pendingReq) {
	s.nextRep++
	pr := &pendingReq{remaining: expected, expected: expected, need: need,
		done: s.env.NewEvent(), status: blockstore.StatusOK,
		sentAt: -1, decidedAt: -1, deciderSlot: -1, deciderIdx: -1}
	if s.trackAcks {
		pr.acks = make([]blockstore.Status, 0, expected)
	}
	s.pending[s.nextRep] = pr
	return s.nextRep, pr
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
// knows which server a reply came down from.
func (s *Server) completePending(repID uint64, from int, st blockstore.Status, payload []byte, size float64, hdr blockstore.Header) {
	pr, ok := s.pending[repID]
	if !ok {
		s.StaleAcks++
		return
	}
	if pr.acks != nil {
		pr.acks = append(pr.acks, st)
	}
	if st == blockstore.StatusOK {
		pr.need--
	} else {
		pr.status = st
	}
	if payload != nil || size > 0 {
		pr.payload = payload
		pr.size = size
		pr.hdr = hdr
	}
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
	s.noteDecider(pr, from)
	pr.done.Trigger(nil)
}

// noteDecider stamps the reply that completed a fan-out and, for
// multi-replica fan-outs, bumps the per-slot straggler counter: the
// deciding ack is by definition the slowest one the protocol still had
// to wait for, so its replica slot is the fan-out's straggler.
func (s *Server) noteDecider(pr *pendingReq, from int) {
	pr.decidedAt = s.now()
	pr.deciderIdx = from
	if pr.expected <= 1 || from < 0 {
		return
	}
	for slot, idx := range pr.set {
		if idx == from {
			pr.deciderSlot = slot
			if slot < len(s.StragglerAcks) {
				s.StragglerAcks[slot]++
			}
			return
		}
	}
}

// onStorageReplyFrom routes replicate/fetch replies back to their
// pending fan-outs. from is the global storage-server index the
// owning connection is wired to (straggler attribution). Used by the
// host and BF2 datapaths; SmartDS routes through recv descriptors
// (see smartds.go).
func (s *Server) onStorageReplyFrom(from int, m *rdma.Message) {
	if m.Data == nil || len(m.Data) < blockstore.HeaderSize {
		return
	}
	h, err := blockstore.Decode(m.Data)
	if err != nil {
		return
	}
	switch h.Op {
	case blockstore.OpReplicateReply:
		s.completePending(h.ReqID, from, h.Status, nil, 0, h)
	case blockstore.OpFetchReply:
		payload := m.Data[blockstore.HeaderSize:]
		size := float64(len(payload))
		if len(payload) == 0 {
			payload = nil
			size = float64(h.PayloadLen) // modeled frame
		}
		s.completePending(h.ReqID, from, h.Status, payload, size, h)
	}
}

// TraceID builds the cluster-wide span correlation id for one client
// request: the issuing VM in the high bits, the per-VM request id
// below. Clients and every middle-tier design derive the same value
// from the header, so one request's spans line up across components.
func TraceID(vmID, reqID uint64) uint64 { return vmID<<48 ^ reqID }

// traceID is TraceID from a parsed request header.
func traceID(hdr blockstore.Header) uint64 { return TraceID(hdr.VMID, hdr.ReqID) }

// now is shorthand for the current virtual time.
func (s *Server) now() float64 { return s.env.Now() }

// chunkKey identifies one chunk for placement.
type chunkKey struct {
	seg   uint64
	chunk uint32
}

// replicasFor returns the servers a write to this chunk should fan out
// to: existing placement if recorded, else a fresh healthy set. Down
// servers in an existing set are replaced by healthy ones (fail-over
// re-replication) and the table updated. When no substitute exists the
// down member keeps its placement slot — it still holds the replica and
// rejoins on recovery — but is excluded from the returned fan-out, so
// the write proceeds degraded instead of panicking; an empty return
// means no replica is reachable at all and the write must fail.
func (s *Server) replicasFor(hdr blockstore.Header) []int {
	key := chunkKey{seg: hdr.SegmentID, chunk: hdr.ChunkID}
	set, ok := s.placement[key]
	if !ok {
		set = s.healthyReplicas()
		if len(set) == 0 {
			s.Unroutable++
			return nil
		}
		if len(set) < s.cfg.Replicas {
			s.Degraded++
		}
		s.placement[key] = set
		return set
	}
	if !slices.ContainsFunc(set, func(idx int) bool { return s.serverDown[idx] }) {
		return set
	}
	healthy := make([]int, 0, len(set))
	var srcs, subs []int
	degraded := false
	for i, idx := range set {
		if !s.serverDown[idx] {
			healthy = append(healthy, idx)
			srcs = append(srcs, idx)
			continue
		}
		if sub := s.substituteReplica(set); sub >= 0 {
			set[i] = sub
			healthy = append(healthy, sub)
			subs = append(subs, sub)
		} else {
			degraded = true
		}
	}
	if degraded {
		s.Degraded++
	}
	if len(healthy) == 0 {
		s.Unroutable++
		return nil
	}
	// A substitute joins the set empty: copy the chunk's existing blocks
	// onto it from a surviving original member, or substitution would
	// silently shrink how many replicas actually hold pre-fail-over
	// writes (the durability checker counts holders per replica).
	for _, sub := range subs {
		s.scheduleBackfill(key, srcs, sub)
	}
	return healthy
}

// scheduleBackfill streams one chunk's snapshot from a surviving
// replica onto a freshly substituted one. The copy is applied to the
// destination store up front (the simulated transfer time then charges
// the port), so blocks written before the fail-over are durable on the
// substitute immediately; versioned restore makes it safe to race with
// new writes to the same chunk — a newer append is never clobbered.
func (s *Server) scheduleBackfill(key chunkKey, srcs []int, dst int) {
	if len(srcs) == 0 || len(s.storageServers) == 0 ||
		dst < 0 || dst >= len(s.storageServers) {
		return
	}
	src := srcs[0]
	s.env.Go("mt.backfill", func(p *sim.Proc) {
		n, err := s.copyChunk(s.storageServers[src], s.storageServers[dst], key)
		if err != nil || n == 0 {
			return
		}
		s.BackfillBytes += float64(n)
		p.Sleep(float64(n) / s.cfg.PortRate)
		if s.cfg.Trace != nil {
			s.cfg.Trace.Emit(p.Now(), "mt", "backfill",
				fmt.Sprintf("chunk=%d/%d src=%d dst=%d bytes=%d", key.seg, key.chunk, src, dst, n))
		}
		if s.cfg.Log.Enabled(evlog.Info) {
			s.cfg.Log.Info("backfill", "seg", key.seg, "chunk", key.chunk,
				"src", src, "dst", dst, "bytes", n)
		}
	})
}

// substituteReplica finds a healthy server outside the given set, or -1
// when every server outside it is down (degraded mode).
func (s *Server) substituteReplica(set []int) int {
	for i := 0; i < s.numStorage; i++ {
		idx := (s.nextPath + i) % s.numStorage
		if s.serverDown[idx] {
			continue
		}
		if !slices.Contains(set, idx) {
			s.nextPath++
			return idx
		}
	}
	return -1
}

// readReplicaFor picks a healthy holder of the request's chunk,
// rotating across the replica set for balance. ok is false when every
// replica of the chunk is down — the caller answers the client with an
// error instead of the old panic.
func (s *Server) readReplicaFor(hdr blockstore.Header) (int, bool) {
	key := chunkKey{seg: hdr.SegmentID, chunk: hdr.ChunkID}
	set, ok := s.placement[key]
	if !ok {
		// Never written through this server: fall back to any healthy
		// server (the storage tier will answer not-found).
		hs := s.healthyReplicas()
		if len(hs) == 0 {
			s.Unroutable++
			return 0, false
		}
		return hs[0], true
	}
	if s.cfg.Protocol == ProtoChain {
		// Chain replication serves reads from the tail: the tail only
		// acked after every predecessor held the write, so its state is
		// always the committed prefix. Walk backward to the last healthy
		// member when the tail itself is down.
		for i := len(set) - 1; i >= 0; i-- {
			if !s.serverDown[set[i]] {
				return set[i], true
			}
		}
		s.Unroutable++
		return 0, false
	}
	for i := 0; i < len(set); i++ {
		idx := set[(s.readRR+i)%len(set)]
		if !s.serverDown[idx] {
			s.readRR++
			return idx, true
		}
	}
	s.Unroutable++
	return 0, false
}

// healthyReplicas picks up to cfg.Replicas distinct healthy storage
// servers, rotating the starting point for balance. Fewer healthy
// servers than the replication factor yields a short (possibly empty)
// set — the caller decides whether to proceed degraded.
func (s *Server) healthyReplicas() []int {
	var out []int
	n := s.numStorage
	for i := 0; i < n && len(out) < s.cfg.Replicas; i++ {
		idx := (s.nextPath + i) % n
		if !s.serverDown[idx] {
			out = append(out, idx)
		}
	}
	s.nextPath++
	return out
}

// SetServerDown marks a storage server failed (or recovered); the
// fail-over maintenance path reroutes subsequent writes.
func (s *Server) SetServerDown(idx int, down bool) {
	s.serverDown[idx] = down
}

// ConnectStorage wires the server to its storage back ends. For
// multi-port designs every port gets its own QP set so replication
// traffic exits the port the request arrived on.
func (s *Server) ConnectStorage(servers []*storage.Server) {
	s.storageServers = servers
	s.numStorage = len(servers)
	s.serverDown = make([]bool, len(servers))
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

// ReplicatorName returns the active protocol's table label.
func (s *Server) ReplicatorName() string { return s.rep.Name() }

// ReadQuorum is how many replicas out of n a read consults under the
// active protocol.
func (s *Server) ReadQuorum(n int) int { return s.rep.ReadQuorum(n) }

// nextWriteVersion hands out the writer-assigned version for one write.
// It is assigned once per logical write, before the fan-out, so every
// retry attempt re-sends the same version and the storage-side
// regression guard treats them as the same write.
func (s *Server) nextWriteVersion() uint64 {
	s.nextVer++
	return s.nextVer
}

// replicatorHost implementation (replicator.go): the slice of Server a
// Replicator drives.

func (s *Server) replicaSet(hdr blockstore.Header) []int {
	// Copy: replicasFor may return the live placement slice, which a
	// concurrent write's substitution mutates in place. The replicator
	// compares its attempt set against currentSet to detect exactly that,
	// so it must hold a stable snapshot.
	return append([]int(nil), s.replicasFor(hdr)...)
}

func (s *Server) currentSet(hdr blockstore.Header) []int {
	return slices.Clone(s.placement[chunkKey{seg: hdr.SegmentID, chunk: hdr.ChunkID}])
}

func (s *Server) abandon(repID uint64) { delete(s.pending, repID) }

func (s *Server) noteRetry(frameSize float64, replicas int) {
	s.ReplicateRetries++
	s.RetryBytes += frameSize * float64(replicas)
}

func (s *Server) replicateTimeout() float64 { return s.cfg.ReplicateTimeout }

func (s *Server) replicas() int { return s.cfg.Replicas }

func (s *Server) emit(now float64, event, detail string) {
	s.cfg.Trace.Emit(now, "mt", event, detail)
}

// noteWait records one completed fan-out's straggler wait on the
// request's trace: the interval between the attempt's sends being
// posted and the deciding ack arriving is time the middle tier spent
// blocked on the slowest awaited replica, not doing work. The span is
// a wait child of mt/replicate in the request DAG; its detail names
// the straggler so a p999 drill-down can say which replica dragged.
func (s *Server) noteWait(hdr blockstore.Header, pr *pendingReq) {
	if pr.sentAt < 0 || pr.decidedAt <= pr.sentAt {
		return
	}
	tid := traceID(hdr)
	tr := s.cfg.Trace.ForRequest(tid)
	if tr == nil {
		return
	}
	detail := ""
	if pr.deciderSlot >= 0 {
		detail = fmt.Sprintf("straggler replica=%d server=%d", pr.deciderSlot, pr.deciderIdx)
	}
	tr.Span(pr.sentAt, pr.decidedAt, "mt", "replicate.wait", tid, tid,
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
