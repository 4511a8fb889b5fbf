package middletier

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/sim"
)

// This file owns replica placement, the chunk -> storage-server mapping
// the paper's middle tier keeps (§2.1). Writes, reads, fail-over
// substitution, backfill and rebuild all ask the placer; no other file
// reads or writes its state.

// chunkKey identifies one chunk for placement.
type chunkKey struct {
	seg   uint64
	chunk uint32
}

// keyOf is the chunk a block header addresses.
func keyOf(h blockstore.Header) chunkKey { return chunkKey{seg: h.SegmentID, chunk: h.ChunkID} }

// placer maps each chunk to the storage servers holding its replicas.
type placer struct {
	replicas int      // replication factor
	proto    Protocol // decides read targets
	chunks   map[chunkKey][]int
	// down is the middle tier's view of each storage server. Fault
	// handling sets it before a crash and clears it only once the
	// server's rebuild has streamed, so it can still say down while the
	// store serves again.
	down []bool
	// next starts every healthy pick, advancing on each one, and every
	// substitute search, advancing only when it finds one. readRR
	// rotates reads across a chunk's members.
	next, readRR int
}

func newPlacer(servers, replicas int, proto Protocol) placer {
	return placer{replicas: replicas, proto: proto,
		chunks: make(map[chunkKey][]int), down: make([]bool, servers)}
}

// pick appends to an empty dst up to k distinct healthy servers,
// scanning from the cursor, which advances on every pick whatever it
// found. Fewer healthy servers than k yield a short, possibly empty,
// set.
func (pl *placer) pick(dst []int, k int) []int {
	n := len(pl.down)
	for i := 0; i < n && len(dst) < k; i++ {
		if idx := (pl.next + i) % n; !pl.down[idx] {
			dst = append(dst, idx)
		}
	}
	pl.next++
	return dst
}

// substitute finds a healthy server outside set, scanning from the
// cursor, which advances only when it finds one; -1 when every server
// outside set is down.
func (pl *placer) substitute(set []int) int {
	n := len(pl.down)
	for i := 0; i < n; i++ {
		if idx := (pl.next + i) % n; !pl.down[idx] && !slices.Contains(set, idx) {
			pl.next++
			return idx
		}
	}
	return -1
}

// writeSet answers where a write to key goes: the chunk's members, or
// for a new chunk a fresh healthy set, which it records. Each down
// member is replaced, in the table too, by a healthy server outside the
// set (fail-over re-replication); subs lists those substitutes, which
// join empty and are backfilled from src, the first original member
// still up (-1: none, nothing to copy). A down member with no
// substitute keeps its slot — it still holds the replica and rejoins on
// recovery — but is left out of set, and degraded reports the
// shortfall. An empty set means no replica is reachable at all. set is
// the caller's own copy.
func (pl *placer) writeSet(key chunkKey) (set []int, src int, subs []int, degraded bool) {
	cur, ok := pl.chunks[key]
	if !ok {
		if set = pl.pick(make([]int, 0, pl.replicas), pl.replicas); len(set) > 0 {
			pl.chunks[key] = set
		}
		return slices.Clone(set), -1, nil, len(set) > 0 && len(set) < pl.replicas
	}
	set, src = make([]int, 0, len(cur)), -1
	for i, idx := range cur {
		if !pl.down[idx] {
			set = append(set, idx)
			if src < 0 {
				src = idx
			}
		} else if sub := pl.substitute(cur); sub >= 0 {
			cur[i] = sub
			set = append(set, sub)
			subs = append(subs, sub)
		} else {
			degraded = true
		}
	}
	return set, src, subs, degraded
}

// moved reports whether key's members differ from set, a write set
// handed out earlier.
func (pl *placer) moved(key chunkKey, set []int) bool {
	cur, ok := pl.chunks[key]
	return ok && !slices.Equal(cur, set)
}

// readTargets appends to an empty dst the servers a read of key fetches
// from: ReadQuorum(replicas) healthy members, rotating the start for
// balance, or under chain the tail-most healthy member (the tail acked
// only after every predecessor held the write, so its state is the
// committed prefix). A chunk never written falls back to that many
// healthy servers from the pick cursor, which answer not-found; no
// write exists whose visibility needs protecting. It returns nil when
// fewer healthy members remain than the read quorum: answering from a
// minority could miss the newest acked write.
func (pl *placer) readTargets(dst []int, key chunkKey) []int {
	rq := pl.proto.ReadQuorum(pl.replicas)
	need := rq
	set, ok := pl.chunks[key]
	switch {
	case !ok:
		dst, need = pl.pick(dst, rq), 1
	case pl.proto == ProtoChain:
		for i := len(set) - 1; i >= 0 && len(dst) < rq; i-- {
			if !pl.down[set[i]] {
				dst = append(dst, set[i])
			}
		}
	default:
		for i := 0; i < len(set) && len(dst) < rq; i++ {
			if idx := set[(pl.readRR+i)%len(set)]; !pl.down[idx] {
				dst = append(dst, idx)
			}
		}
		// Primary moves the rotation past a successful pick only; quorum
		// moves it on every read.
		if len(dst) == rq || pl.proto == ProtoQuorum {
			pl.readRR++
		}
	}
	if len(dst) < need {
		return nil
	}
	return dst
}

// rebuildSources calls each for every chunk placed on idx, in
// (segment, chunk) order so same-seed runs replay identically, with the
// first other member that up reports serving as its source. Rebuild asks
// the storage servers through up, not the down flags: a server still
// finishing its own rebuild already holds its chunks again. A chunk
// without such a member is skipped (no surviving replica: data loss,
// nothing to stream).
func (pl *placer) rebuildSources(idx int, up func(int) bool, each func(key chunkKey, src int)) {
	var keys []chunkKey
	for key, set := range pl.chunks {
		if slices.Contains(set, idx) {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(a, b chunkKey) int {
		return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.chunk, b.chunk))
	})
	for _, key := range keys {
		set := pl.chunks[key]
		if i := slices.IndexFunc(set, func(m int) bool { return m != idx && up(m) }); i >= 0 {
			each(key, set[i])
		}
	}
}

// SetServerDown marks a storage server failed (or recovered); later
// writes route around it.
func (s *Server) SetServerDown(idx int, down bool) { s.place.down[idx] = down }

// ReplicaSet returns a copy of the recorded placement for one chunk
// (empty when the chunk was never written through this server). The
// durability checker walks it to find which stores must hold a block.
func (s *Server) ReplicaSet(seg uint64, chunk uint32) []int {
	return slices.Clone(s.place.chunks[chunkKey{seg: seg, chunk: chunk}])
}

// writeSet is the placer's write set for hdr's chunk. It counts a
// degraded or unroutable write and starts the backfills substitution
// asks for; an empty set fails the write.
func (s *Server) writeSet(hdr blockstore.Header) []int {
	key := keyOf(hdr)
	set, src, subs, degraded := s.place.writeSet(key)
	if degraded {
		s.Degraded++
	}
	if len(set) == 0 {
		s.Unroutable++
		return nil
	}
	for _, dst := range subs {
		s.backfill(key, src, dst)
	}
	return set
}

// backfill streams one chunk's snapshot from src onto dst, a freshly
// substituted replica. The copy is applied to the destination store up
// front (the simulated transfer time then charges the port), so blocks
// written before the fail-over are durable on the substitute
// immediately; versioned restore makes it safe to race with new writes
// to the same chunk — a newer append is never clobbered.
func (s *Server) backfill(key chunkKey, src, dst int) {
	if src < 0 || dst >= len(s.storageServers) {
		return
	}
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
	})
}
