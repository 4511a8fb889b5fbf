package middletier

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/disagg/smartds/internal/blockstore"
)

// newPlacementServer builds a test server whose placer spans n storage
// servers.
func newPlacementServer(t *testing.T, n int) *Server {
	t.Helper()
	s := newTestServer(t, CPUOnly)
	s.place = newPlacer(n, s.cfg.Replicas, s.cfg.Protocol)
	return s
}

// pin records the test chunk (7, 1) as placed on set.
func pin(s *Server, set ...int) { s.place.chunks[chunkKey{seg: 7, chunk: 1}] = set }

// readTarget is the one server a single-replica read of h fetches from;
// ok is false when the read is unroutable.
func readTarget(s *Server, h blockstore.Header) (int, bool) {
	targets := s.place.readTargets(nil, keyOf(h))
	if len(targets) != 1 {
		return -1, false
	}
	return targets[0], true
}

func TestHealthyReplicasRotatesAndSkipsDown(t *testing.T) {
	s := newPlacementServer(t, 5)
	s.SetServerDown(1, true)

	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		for _, idx := range s.place.pick(nil, 3) {
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
	s := newPlacementServer(t, 3)
	s.SetServerDown(0, true) // only 2 healthy, need 3
	if set := s.place.pick(nil, 3); !slices.Equal(set, []int{1, 2}) {
		t.Fatalf("healthy set = %v, want the 2 surviving servers", set)
	}
	// A degraded write counts itself.
	h := blockstore.Header{SegmentID: 9, ChunkID: 9}
	if got := s.writeSet(h); len(got) != 2 {
		t.Fatalf("degraded fan-out = %v", got)
	}
	if s.Degraded == 0 {
		t.Fatal("degraded write not counted")
	}
}

func TestPlacementStableAcrossWritesAndReads(t *testing.T) {
	s := newPlacementServer(t, 8)
	h := blockstore.Header{SegmentID: 3, ChunkID: 7}
	set1 := s.writeSet(h)
	// Later writes to the same chunk reuse the same replica set even as
	// other chunks rotate the allocator.
	for i := 0; i < 10; i++ {
		s.writeSet(blockstore.Header{SegmentID: uint64(i), ChunkID: uint32(i)})
	}
	set2 := s.writeSet(h)
	if len(set1) != 3 || !slices.Equal(set1, set2) {
		t.Fatalf("placement not stable: %v vs %v", set1, set2)
	}
	// Reads target members of the set.
	seen := map[int]bool{}
	for i := 0; i < 12; i++ {
		idx, ok := readTarget(s, h)
		if !ok {
			t.Fatal("healthy chunk reported unroutable")
		}
		if !slices.Contains(set1, idx) {
			t.Fatalf("read targeted non-replica %d (set %v)", idx, set1)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("reads not balanced across replicas: %v", seen)
	}
}

func TestPlacementFailoverSubstitutes(t *testing.T) {
	s := newPlacementServer(t, 5)
	h := blockstore.Header{SegmentID: 1, ChunkID: 1}
	orig := s.writeSet(h)
	s.SetServerDown(orig[1], true)
	if repl := s.writeSet(h); len(repl) != 3 || slices.Contains(repl, orig[1]) {
		t.Fatalf("replica set %v after server %d of %v went down", repl, orig[1], orig)
	}
	// Reads avoid the down server too.
	for i := 0; i < 6; i++ {
		idx, ok := readTarget(s, h)
		if !ok {
			t.Fatal("chunk with healthy replicas reported unroutable")
		}
		if idx == orig[1] {
			t.Fatalf("read targeted down server %d", idx)
		}
	}
}

func TestReadReplicaUnknownChunkFallsBack(t *testing.T) {
	s := newPlacementServer(t, 4)
	idx, ok := readTarget(s, blockstore.Header{SegmentID: 42, ChunkID: 42})
	if !ok || idx < 0 || idx >= 4 {
		t.Fatalf("fallback index %d ok=%v", idx, ok)
	}
}

func TestAllReplicasDownReportsUnroutable(t *testing.T) {
	s := newPlacementServer(t, 4)
	h := blockstore.Header{SegmentID: 2, ChunkID: 2}
	for _, idx := range s.writeSet(h) {
		s.SetServerDown(idx, true)
	}
	// Substitution rescues the chunk while a healthy server remains
	// outside the original set.
	if repl := s.writeSet(h); len(repl) == 0 {
		t.Fatalf("substitution failed with a spare server: %v", repl)
	}
	// With every server down, both paths degrade gracefully.
	for i := 0; i < 4; i++ {
		s.SetServerDown(i, true)
	}
	if _, ok := readTarget(s, h); ok {
		t.Fatal("fully-down chunk reported routable")
	}
	if set := s.writeSet(h); set != nil {
		t.Fatalf("fully-down write got replicas %v", set)
	}
	if s.Unroutable == 0 {
		t.Fatal("unroutable requests not counted")
	}
}

// TestReplicasForSubstitutionUnderCrashes exercises degraded-mode
// substitution through the real Server: with 0, 1, and 2 simultaneous
// crashes out of 5 servers, a 3-replica placement keeps its surviving
// members in their slots, substitutes healthy servers for the dead, and
// only counts the write degraded when the set actually shrank.
func TestReplicasForSubstitutionUnderCrashes(t *testing.T) {
	for _, crashes := range [][]int{nil, {1}, {1, 3}} {
		s := newPlacementServer(t, 5)
		h := blockstore.Header{SegmentID: 7, ChunkID: 3}
		orig := s.writeSet(h) // pins placement
		if len(orig) != 3 {
			t.Fatalf("initial placement = %v, want 3 replicas", orig)
		}
		for _, idx := range crashes {
			s.SetServerDown(idx, true)
		}
		got := s.writeSet(h)
		if len(got) != 3 {
			t.Fatalf("%d crashes: set = %v, want full substitution from 5 servers", len(crashes), got)
		}
		for i, o := range orig {
			down := slices.Contains(crashes, o)
			if down == (got[i] == o) || slices.Contains(crashes, got[i]) {
				t.Fatalf("%d crashes: %v -> %v, want each down member substituted and each survivor kept", len(crashes), orig, got)
			}
		}
		if len(crashes) == 0 && s.Degraded != 0 {
			t.Fatal("healthy write counted degraded")
		}
	}
}

// TestPlacementCursorRules pins the two cursor rules same-seed runs
// depend on: a healthy pick advances the write cursor on every call,
// even one that found no server, while a substitute search advances it
// only when it found a substitute.
func TestPlacementCursorRules(t *testing.T) {
	pl := newPlacer(4, 3, ProtoPrimary)
	for i := range 4 {
		pl.down[i] = true
	}
	if set := pl.pick(nil, 3); len(set) != 0 || pl.next != 1 {
		t.Fatalf("pick with every server down = %v, cursor %d, want empty and 1", set, pl.next)
	}
	if sub := pl.substitute([]int{0, 1, 2}); sub != -1 || pl.next != 1 {
		t.Fatalf("failed substitute search = %d, cursor %d, want -1 and 1", sub, pl.next)
	}
	pl.down[3] = false
	if sub := pl.substitute([]int{0, 1, 2}); sub != 3 || pl.next != 2 {
		t.Fatalf("substitute = %d, cursor %d, want 3 and 2", sub, pl.next)
	}
}

// TestWriteSetBackfillSource pins what a substitution hands the
// backfill: the substitutes, in slot order, and as their source the
// first original member the middle tier considers up, even when an
// earlier slot was the one substituted.
func TestWriteSetBackfillSource(t *testing.T) {
	pl := newPlacer(6, 3, ProtoPrimary)
	key := chunkKey{seg: 7, chunk: 1}
	pl.chunks[key] = []int{0, 1, 2}
	pl.down[0], pl.down[2] = true, true
	set, src, subs, degraded := pl.writeSet(key)
	if !slices.Equal(set, []int{3, 1, 4}) || src != 1 || !slices.Equal(subs, []int{3, 4}) || degraded {
		t.Fatalf("writeSet = %v src %d subs %v degraded %v, want [3 1 4] src 1 subs [3 4]", set, src, subs, degraded)
	}
	if got := pl.chunks[key]; !slices.Equal(got, []int{3, 1, 4}) {
		t.Fatalf("table holds %v after substitution, want [3 1 4]", got)
	}
	// Every original member down and no spare: nothing to copy from, and
	// the down members keep their slots.
	pl = newPlacer(3, 3, ProtoPrimary)
	pl.chunks[key] = []int{0, 1, 2}
	pl.down[0], pl.down[1], pl.down[2] = true, true, true
	if set, src, subs, degraded := pl.writeSet(key); len(set) != 0 || src != -1 || subs != nil || !degraded {
		t.Fatalf("writeSet = %v src %d subs %v degraded %v, want empty, -1, none, degraded", set, src, subs, degraded)
	}
}

// TestReadTargets pins which storage servers each protocol's reads
// fetch from, driven through the real read pipeline. The chunk lives
// on servers {1, 3, 4} of five (slot 0 is the head, 4 the tail). Three
// reads per case show the rotation: primary rotates across healthy
// members and advances readRR only when it found one; quorum consults
// ReadQuorum(3) = 2 healthy members and advances readRR on every read
// of a placed chunk; chain reads the tail-most healthy member and
// never rotates. A chunk never written falls back to the rotating
// healthy-server allocator.
func TestReadTargets(t *testing.T) {
	type want struct {
		targets    [3][]int // servers each read fetched from (nil: unroutable)
		rr         [3]int   // readRR after each read
		unroutable uint64
	}
	cases := []struct {
		name      string
		down      []int
		unwritten bool
		want      map[Protocol]want
	}{
		{name: "healthy", want: map[Protocol]want{
			ProtoPrimary: {targets: [3][]int{{1}, {3}, {4}}, rr: [3]int{1, 2, 3}},
			ProtoChain:   {targets: [3][]int{{4}, {4}, {4}}},
			ProtoQuorum:  {targets: [3][]int{{1, 3}, {3, 4}, {4, 1}}, rr: [3]int{1, 2, 3}},
		}},
		{name: "member-down", down: []int{3}, want: map[Protocol]want{
			ProtoPrimary: {targets: [3][]int{{1}, {4}, {4}}, rr: [3]int{1, 2, 3}},
			ProtoChain:   {targets: [3][]int{{4}, {4}, {4}}},
			ProtoQuorum:  {targets: [3][]int{{1, 4}, {4, 1}, {4, 1}}, rr: [3]int{1, 2, 3}},
		}},
		{name: "tail-down", down: []int{4}, want: map[Protocol]want{
			ProtoPrimary: {targets: [3][]int{{1}, {3}, {1}}, rr: [3]int{1, 2, 3}},
			ProtoChain:   {targets: [3][]int{{3}, {3}, {3}}},
			ProtoQuorum:  {targets: [3][]int{{1, 3}, {3, 1}, {1, 3}}, rr: [3]int{1, 2, 3}},
		}},
		{name: "all-down", down: []int{1, 3, 4}, want: map[Protocol]want{
			ProtoPrimary: {unroutable: 3},
			ProtoChain:   {unroutable: 3},
			ProtoQuorum:  {rr: [3]int{1, 2, 3}, unroutable: 3},
		}},
		{name: "unwritten", unwritten: true, want: map[Protocol]want{
			ProtoPrimary: {targets: [3][]int{{0}, {1}, {2}}},
			ProtoChain:   {targets: [3][]int{{0}, {1}, {2}}},
			ProtoQuorum:  {targets: [3][]int{{0, 1}, {1, 2}, {2, 3}}},
		}},
	}
	block := bytes.Repeat([]byte("targets "), 512)
	for _, c := range cases {
		for _, proto := range Protocols() {
			t.Run(fmt.Sprintf("%s/%s", c.name, proto), func(t *testing.T) {
				w := c.want[proto]
				s, f, tr := newFakePipeline(t, proto, 5)
				if !c.unwritten {
					pin(s, 1, 3, 4)
				}
				for _, idx := range c.down {
					s.SetServerDown(idx, true)
				}
				f.fetch, f.stored = blockstore.StatusOK, mustFrame(t, block)
				for i := range w.targets {
					n := len(f.sends)
					st := drive(t, s, f, tr, blockstore.OpRead, uint64(i+1), nil)
					got := f.sentTo(n)
					if !slices.Equal(got, w.targets[i]) {
						t.Errorf("read %d fetched from %v, want %v", i+1, got, w.targets[i])
					}
					wantSt := blockstore.StatusOK
					if w.targets[i] == nil {
						wantSt = blockstore.StatusError
					}
					if st != wantSt {
						t.Errorf("read %d replied %v, want %v", i+1, st, wantSt)
					}
					if s.place.readRR != w.rr[i] {
						t.Errorf("readRR after read %d = %d, want %d", i+1, s.place.readRR, w.rr[i])
					}
				}
				if s.Unroutable != w.unroutable || s.ReadRepairs != 0 || len(s.pending) != 0 {
					t.Errorf("unroutable %d repairs %d pending %d, want %d/0/0",
						s.Unroutable, s.ReadRepairs, len(s.pending), w.unroutable)
				}
			})
		}
	}
}
