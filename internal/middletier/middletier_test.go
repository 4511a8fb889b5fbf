package middletier

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		CPUOnly: "CPU-only", Accel: "Acc", BF2: "BF2", SmartDS: "SmartDS",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestDefaultConfigPerKind(t *testing.T) {
	if DefaultConfig(BF2).Ports != 2 {
		t.Error("BF2 should default to 2 ports")
	}
	if DefaultConfig(SmartDS).Ports != 1 {
		t.Error("SmartDS should default to 1 port")
	}
	cfg := DefaultConfig(CPUOnly)
	if cfg.Replicas != 3 || cfg.BlockSize != 4096 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.SplitBytes != blockstore.HeaderSize {
		t.Errorf("default split = %d, want header size", cfg.SplitBytes)
	}
}

func newTestServer(t *testing.T, kind Kind) *Server {
	t.Helper()
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	cfg := DefaultConfig(kind)
	cfg.HBM.Capacity = 64 << 20
	return New(env, fabric, cfg)
}

func TestHealthyReplicasRotatesAndSkipsDown(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	s.numStorage = 5
	s.serverDown = make([]bool, 5)
	s.SetServerDown(1, true)

	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		for _, idx := range s.healthyReplicas() {
			counts[idx]++
		}
	}
	if counts[1] != 0 {
		t.Fatalf("down server selected %d times", counts[1])
	}
	// The four healthy servers all get used.
	for _, idx := range []int{0, 2, 3, 4} {
		if counts[idx] == 0 {
			t.Fatalf("healthy server %d never selected", idx)
		}
	}
}

func TestHealthyReplicasShortWhenInsufficient(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	s.numStorage = 3
	s.serverDown = []bool{true, false, false} // only 2 healthy, need 3
	set := s.healthyReplicas()
	if len(set) != 2 {
		t.Fatalf("healthy set = %v, want the 2 surviving servers", set)
	}
	for _, idx := range set {
		if s.serverDown[idx] {
			t.Fatalf("down server in healthy set %v", set)
		}
	}
	// A degraded write through replicasFor counts itself.
	h := blockstore.Header{SegmentID: 9, ChunkID: 9}
	if got := s.replicasFor(h); len(got) != 2 {
		t.Fatalf("degraded fan-out = %v", got)
	}
	if s.Degraded == 0 {
		t.Fatal("degraded write not counted")
	}
}

func TestPendingFanInCountsReplies(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	id, pr := s.begin(3, 3)
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	if pr.done.Done() {
		t.Fatal("pending completed early")
	}
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	if !pr.done.Done() {
		t.Fatal("pending did not complete after all replies")
	}
	if pr.status != blockstore.StatusOK {
		t.Fatalf("status = %v", pr.status)
	}
	// Stale completion for a finished id is ignored.
	s.completePending(id, -1, blockstore.StatusError, frame{}, blockstore.Header{})
}

func TestPendingRecordsWorstStatus(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	id, pr := s.begin(2, 2)
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	s.completePending(id, -1, blockstore.StatusCorrupt, frame{}, blockstore.Header{})
	if pr.status != blockstore.StatusCorrupt {
		t.Fatalf("fan-in status = %v, want Corrupt", pr.status)
	}
}

func TestParseRequestFunctionalAndModeled(t *testing.T) {
	h := blockstore.Header{Op: blockstore.OpWrite, ReqID: 7, OrigLen: 4096}
	block := bytes.Repeat([]byte{0xAB}, 4096)

	// Functional: header + real payload.
	m := &rdma.Message{Data: blockstore.Message(&h, block), Size: float64(blockstore.HeaderSize + 4096)}
	req, ok := parseRequest(m)
	if !ok || req.hdr.ReqID != 7 || req.in.size != 4096 || !bytes.Equal(req.in.data, block) {
		t.Fatalf("functional parse: %+v ok=%v", req, ok)
	}

	// Modeled: header only, size implies the payload.
	m = &rdma.Message{Data: h.Encode(), Size: float64(blockstore.HeaderSize + 4096)}
	req, ok = parseRequest(m)
	if !ok || req.in.size != 4096 || len(req.in.data) != 0 {
		t.Fatalf("modeled parse: %+v ok=%v", req, ok)
	}

	// Garbage is rejected.
	if _, ok := parseRequest(&rdma.Message{Data: []byte("short")}); ok {
		t.Fatal("garbage accepted")
	}
	if _, ok := parseRequest(&rdma.Message{Data: nil, Size: 4096}); ok {
		t.Fatal("nil-data message accepted")
	}
}

func TestCompressFrameRoundTrips(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	block := bytes.Repeat([]byte("compressible "), 400)[:4096]
	f, comp, err := s.ownFrame(&request{in: frame{data: block, size: 4096}}, s.cfg.Level)
	if err != nil || float64(len(f.data)) != f.size || f.size != lz4.FrameHeaderSize+comp {
		t.Fatalf("frame of %d bytes, size %g, comp %g (%v)", len(f.data), f.size, comp, err)
	}
	got, err := lz4.DecodeFrame(f.data)
	if err != nil || !bytes.Equal(got, block) {
		t.Fatalf("frame corrupt: %v", err)
	}

	// A modeled payload compresses at the model ratio, and its frame
	// carries the header like a functional one.
	f, comp, _ = s.ownFrame(&request{in: frame{size: 4096}}, s.cfg.Level)
	if comp != 4096/modelRatio || f.size != lz4.FrameHeaderSize+comp || len(f.data) != 0 {
		t.Fatalf("modeled frame: size %g, comp %g, %d bytes", f.size, comp, len(f.data))
	}
}

func TestConfigValidationPanics(t *testing.T) {
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	cfg := DefaultConfig(CPUOnly)
	cfg.Workers = 1000 // more cores than the pool has
	defer func() {
		if recover() == nil {
			t.Fatal("overclaimed workers did not panic")
		}
	}()
	New(env, fabric, cfg)
}

func TestUnknownKindPanics(t *testing.T) {
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	cfg := DefaultConfig(CPUOnly)
	cfg.Kind = Kind(99)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	New(env, fabric, cfg)
}

// TestMaintenanceDefaults pins what the services' loops assume of
// their constants: positive cadences, a garbage ratio threshold inside
// (0, 1), and per-pass core time shorter than the pass's interval.
func TestMaintenanceDefaults(t *testing.T) {
	if compactionInterval <= 0 || gcInterval <= 0 || snapshotInterval <= 0 || compactionBytes <= 0 {
		t.Fatalf("maintenance cadences not positive: compaction %g s, gc %g s, snapshot %g s, %d B",
			compactionInterval, gcInterval, snapshotInterval, compactionBytes)
	}
	if gcThreshold <= 0 || gcThreshold >= 1 {
		t.Fatalf("gc threshold %g outside (0, 1)", gcThreshold)
	}
	if compactionCPUTime >= compactionInterval || snapshotCPUTime >= snapshotInterval {
		t.Fatalf("a pass outlasts its interval: compaction %g/%g s, snapshot %g/%g s",
			compactionCPUTime, compactionInterval, snapshotCPUTime, snapshotInterval)
	}
}

func TestAccessorsPerKind(t *testing.T) {
	cpu := newTestServer(t, CPUOnly)
	if cpu.NIC() == nil || cpu.Device() != nil || cpu.AccelPCIe() != nil {
		t.Fatal("CPUOnly accessors wrong")
	}
	acc := newTestServer(t, Accel)
	if acc.NIC() == nil || acc.AccelPCIe() == nil {
		t.Fatal("Accel accessors wrong")
	}
	sds := newTestServer(t, SmartDS)
	if sds.Device() == nil || sds.NIC() != nil {
		t.Fatal("SmartDS accessors wrong")
	}
	if sds.CPUPool() == nil {
		t.Fatal("CPU pool missing")
	}
	if sds.Kind() != SmartDS || sds.Config().Kind != SmartDS {
		t.Fatal("kind accessors wrong")
	}
}

func TestPlacementStableAcrossWritesAndReads(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	s.numStorage = 8
	s.serverDown = make([]bool, 8)
	h := blockstore.Header{SegmentID: 3, ChunkID: 7}
	set1 := s.replicasFor(h)
	// Later writes to the same chunk reuse the same replica set even as
	// other chunks rotate the allocator.
	for i := 0; i < 10; i++ {
		s.replicasFor(blockstore.Header{SegmentID: uint64(i), ChunkID: uint32(i)})
	}
	set2 := s.replicasFor(h)
	if len(set1) != 3 || len(set2) != 3 {
		t.Fatalf("replica sets: %v %v", set1, set2)
	}
	for i := range set1 {
		if set1[i] != set2[i] {
			t.Fatalf("placement not stable: %v vs %v", set1, set2)
		}
	}
	// Reads target members of the set.
	seen := map[int]bool{}
	for i := 0; i < 12; i++ {
		idx, ok := readTarget(s, h)
		if !ok {
			t.Fatal("healthy chunk reported unroutable")
		}
		found := false
		for _, m := range set1 {
			if m == idx {
				found = true
			}
		}
		if !found {
			t.Fatalf("read targeted non-replica %d (set %v)", idx, set1)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("reads not balanced across replicas: %v", seen)
	}
}

func TestPlacementFailoverSubstitutes(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	s.numStorage = 5
	s.serverDown = make([]bool, 5)
	h := blockstore.Header{SegmentID: 1, ChunkID: 1}
	orig := append([]int(nil), s.replicasFor(h)...)
	s.SetServerDown(orig[1], true)
	repl := s.replicasFor(h)
	for _, idx := range repl {
		if idx == orig[1] {
			t.Fatalf("down server still in replica set: %v", repl)
		}
		if s.serverDown[idx] {
			t.Fatalf("replica set contains a down server: %v", repl)
		}
	}
	// Reads avoid the down server too.
	for i := 0; i < 6; i++ {
		idx, ok := readTarget(s, h)
		if !ok {
			t.Fatal("chunk with healthy replicas reported unroutable")
		}
		if s.serverDown[idx] {
			t.Fatalf("read targeted down server %d", idx)
		}
	}
}

func TestReadReplicaUnknownChunkFallsBack(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	s.numStorage = 4
	s.serverDown = make([]bool, 4)
	idx, ok := readTarget(s, blockstore.Header{SegmentID: 42, ChunkID: 42})
	if !ok || idx < 0 || idx >= 4 {
		t.Fatalf("fallback index %d ok=%v", idx, ok)
	}
}

func TestAllReplicasDownReportsUnroutable(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	s.numStorage = 4
	s.serverDown = make([]bool, 4)
	h := blockstore.Header{SegmentID: 2, ChunkID: 2}
	set := s.replicasFor(h)
	for _, idx := range set {
		s.serverDown[idx] = true
	}
	// Substitution rescues the chunk while a healthy server remains
	// outside the original set.
	if repl := s.replicasFor(h); len(repl) == 0 {
		t.Fatalf("substitution failed with a spare server: %v", repl)
	}
	// With every server down, both paths degrade gracefully.
	for i := range s.serverDown {
		s.serverDown[i] = true
	}
	if _, ok := readTarget(s, h); ok {
		t.Fatal("fully-down chunk reported routable")
	}
	if set := s.replicasFor(h); set != nil {
		t.Fatalf("fully-down write got replicas %v", set)
	}
	if s.Unroutable == 0 {
		t.Fatal("unroutable requests not counted")
	}
}

// readTarget is the one server a single-replica read of h fetches from;
// ok is false when the read is unroutable.
func readTarget(s *Server, h blockstore.Header) (int, bool) {
	targets := s.readTargets(nil, h)
	if len(targets) != 1 {
		return -1, false
	}
	return targets[0], true
}

// TestReplicasForSubstitutionUnderCrashes exercises degraded-mode
// substitution through the real Server: with 0, 1, and 2 simultaneous
// crashes out of 5 servers, a 3-replica placement keeps its surviving
// members, substitutes healthy servers for the dead, and only counts
// the write degraded when the set actually shrank.
func TestReplicasForSubstitutionUnderCrashes(t *testing.T) {
	for _, crashes := range [][]int{nil, {1}, {1, 3}} {
		s := newTestServer(t, CPUOnly)
		s.numStorage = 5
		s.serverDown = make([]bool, 5)
		h := blockstore.Header{SegmentID: 7, ChunkID: 3}
		orig := append([]int(nil), s.replicasFor(h)...) // pins placement
		if len(orig) != 3 {
			t.Fatalf("initial placement = %v, want 3 replicas", orig)
		}
		for _, idx := range crashes {
			s.SetServerDown(idx, true)
		}
		got := s.replicasFor(h)
		if len(got) != 3 {
			t.Fatalf("%d crashes: set = %v, want full substitution from 5 servers", len(crashes), got)
		}
		down := map[int]bool{}
		for _, idx := range crashes {
			down[idx] = true
		}
		for _, idx := range got {
			if down[idx] {
				t.Fatalf("%d crashes: down server %d still in set %v", len(crashes), idx, got)
			}
		}
		// Surviving original members keep their slots.
		for _, o := range orig {
			if down[o] {
				continue
			}
			found := false
			for _, g := range got {
				if g == o {
					found = true
				}
			}
			if !found {
				t.Fatalf("%d crashes: surviving member %d evicted: %v -> %v", len(crashes), o, orig, got)
			}
		}
		if len(crashes) == 0 && s.Degraded != 0 {
			t.Fatal("healthy write counted degraded")
		}
	}
}
