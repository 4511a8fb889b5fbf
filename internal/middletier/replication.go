package middletier

import (
	"fmt"
	"slices"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/sim"
)

// This file is the replication protocol layer: one write loop and one
// read path serve the three protocols the comparison harness studies
// (primary fan-out, chain, ABD-style quorum). A protocol is its quorum
// sizes plus its hop shape; the request pipeline (pipeline.go) builds
// the replicate message, each design's datapath transports it, and the
// durability checker (cluster.CheckAckedWrites) derives its invariant
// from the same quorums.

// Protocol selects the replication protocol a middle-tier server runs.
type Protocol int

// The three replication protocols.
const (
	// ProtoPrimary is the seed behavior: fan the frame out to every
	// replica at once and ack the client when all of them acked.
	ProtoPrimary Protocol = iota
	// ProtoChain is chain replication, middle-tier-sequenced: the frame
	// is forwarded to the head, then to each successor only after the
	// predecessor acked, and the client ack follows the tail's ack.
	// Reads target the tail.
	ProtoChain
	// ProtoQuorum is an ABD-style write quorum: fan out to every
	// replica, ack the client at ceil((n+1)/2) acks. Reads consult a
	// read quorum, pick the newest writer version, and read-repair
	// stale replicas.
	ProtoQuorum
)

var protocolNames = [...]string{ProtoPrimary: "primary", ProtoChain: "chain", ProtoQuorum: "quorum"}

func (p Protocol) String() string {
	if p >= 0 && int(p) < len(protocolNames) {
		return protocolNames[p]
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol maps a -replication flag value to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "primary", "fanout", "primary-fanout":
		return ProtoPrimary, nil
	case "chain":
		return ProtoChain, nil
	case "quorum", "abd":
		return ProtoQuorum, nil
	}
	return ProtoPrimary, fmt.Errorf("middletier: unknown replication protocol %q (have primary, chain, quorum)", s)
}

// Protocols lists every protocol in comparison-table order.
func Protocols() []Protocol { return []Protocol{ProtoPrimary, ProtoChain, ProtoQuorum} }

// WriteQuorum is how many replicas out of a set of n must hold an acked
// write for the protocol's durability contract to hold.
func (p Protocol) WriteQuorum(n int) int {
	if p == ProtoQuorum {
		return n/2 + 1
	}
	return n
}

// ReadQuorum is how many replicas out of n a read consults; every write
// quorum must intersect every read quorum.
func (p Protocol) ReadQuorum(n int) int {
	if p == ProtoQuorum {
		return n/2 + 1
	}
	return 1
}

// maxReplicateAttempts bounds how many times one write's replication is
// re-issued before the client gets an error. Each retry refreshes the
// replica set, so a crashed server is routed around on the second
// attempt; repeated failure means the cluster itself is unhealthy.
const maxReplicateAttempts = 4

// replicate runs one write's replication and returns the status the
// client ack carries plus how many replicas the deciding attempt
// shipped the frame to (the BytesStored accounting factor). send must
// issue the replicate message, tagged with repID, to every server in
// set.
//
// Each attempt resolves a fresh replica set and walks it in hops.
// Primary and quorum send one hop to every member, succeeding when all
// of them, or the write quorum of the replication factor, acked OK.
// Chain sends one hop per member, head first, each after its
// predecessor acked: the middle tier stays the sequencer (storage
// servers do not forward to each other), so its send bandwidth matches
// fan-out while ack latency and ordering match chain replication. A
// hop that times out is orphaned — completePending counts its late
// acks as stale, and versioned appends make the re-send idempotent —
// and the attempt restarts against a refreshed set.
func (s *Server) replicate(p *sim.Proc, hdr blockstore.Header, frameSize float64,
	send func(repID uint64, set []int)) (blockstore.Status, int) {
	proto := s.cfg.Protocol
	stored := 0
attempts:
	for attempt := 1; attempt <= maxReplicateAttempts; attempt++ {
		// Copy: replicasFor may return the live placement slice, which a
		// concurrent write's substitution mutates in place; the resync
		// check below compares against this snapshot.
		set := slices.Clone(s.replicasFor(hdr))
		hop, need := len(set), len(set) // members per hop, OK acks per hop
		switch proto {
		case ProtoChain:
			hop, need = 1, 1
		case ProtoQuorum:
			need = proto.WriteQuorum(s.cfg.Replicas)
		}
		if len(set) == 0 || len(set) < need {
			// No reachable replica at all, or fewer than the write quorum:
			// fail the write rather than block the client forever or ack a
			// write a majority never held.
			return blockstore.StatusError, stored
		}
		if attempt > 1 {
			s.ReplicateRetries++
			s.RetryBytes += frameSize * float64(len(set))
		}
		stored = len(set)
		worst := blockstore.StatusOK
		for lo := 0; lo < len(set); lo += hop {
			members := set[lo : lo+hop]
			repID, pr := s.begin(len(members), need)
			send(repID, members)
			pr.set, pr.sentAt = members, p.Now()
			if !s.awaitAck(p, pr) {
				delete(s.pending, repID)
				var detail string
				switch proto {
				case ProtoChain:
					detail = fmt.Sprintf("protocol=chain attempt=%d hop=%d/%d", attempt, lo+1, len(set))
				case ProtoQuorum:
					detail = fmt.Sprintf("protocol=quorum attempt=%d replicas=%d need=%d acked=%d",
						attempt, len(set), need, need-pr.need)
				default:
					detail = fmt.Sprintf("attempt=%d replicas=%d", attempt, len(set))
				}
				s.cfg.Trace.Emit(p.Now(), "mt", "replicate-timeout", detail)
				continue attempts
			}
			s.noteWait(hdr, pr)
			if pr.status != blockstore.StatusOK {
				worst = pr.status
			}
		}
		// A member crashed mid-flight and a concurrent write substituted
		// a fresh replica into its slot: the backfill snapshot may predate
		// this write, which never reached the substitute, so the
		// all-replica protocols re-send to the current set before the
		// client hears OK. Quorum tolerates the gap by construction.
		if worst == blockstore.StatusOK && proto != ProtoQuorum {
			key := chunkKey{seg: hdr.SegmentID, chunk: hdr.ChunkID}
			if cur, ok := s.placement[key]; ok && !slices.Equal(cur, set) {
				detail := fmt.Sprintf("attempt=%d replicas=%d", attempt, len(set))
				if proto == ProtoChain {
					detail = "protocol=chain " + detail
				}
				s.cfg.Trace.Emit(p.Now(), "mt", "replicate-resync", detail)
				continue
			}
		}
		return worst, stored
	}
	return blockstore.StatusError, stored
}

// awaitAck waits for a fan-out to complete, bounded by the replicate
// timeout when one is set; false means it timed out.
func (s *Server) awaitAck(p *sim.Proc, pr *pendingReq) bool {
	if s.cfg.ReplicateTimeout <= 0 {
		p.Wait(pr.done)
		return true
	}
	_, ok := p.WaitTimeout(pr.done, s.cfg.ReplicateTimeout)
	return ok
}

// readTargets appends to dst the storage servers a read of hdr's chunk
// fetches from: ReadQuorum(Replicas) healthy members of its placement,
// rotating the start for balance, or under chain the tail-most healthy
// member (the tail acked only after every predecessor held the write,
// so its state is the committed prefix). A chunk never written through
// this server falls back to that many arbitrary healthy servers, which
// answer not-found; no write exists whose visibility needs protecting.
// It returns nil, counting the read unroutable, when fewer healthy
// members remain than the read quorum: answering from a minority could
// miss the newest acked write.
func (s *Server) readTargets(dst []int, hdr blockstore.Header) []int {
	rq := s.cfg.Protocol.ReadQuorum(s.cfg.Replicas)
	need := rq
	set, ok := s.placement[chunkKey{seg: hdr.SegmentID, chunk: hdr.ChunkID}]
	switch {
	case !ok:
		hs := s.healthyReplicas()
		dst, need = append(dst, hs[:min(rq, len(hs))]...), 1
	case s.cfg.Protocol == ProtoChain:
		for i := len(set) - 1; i >= 0 && len(dst) < rq; i-- {
			if !s.serverDown[set[i]] {
				dst = append(dst, set[i])
			}
		}
	default:
		for i := 0; i < len(set) && len(dst) < rq; i++ {
			if idx := set[(s.readRR+i)%len(set)]; !s.serverDown[idx] {
				dst = append(dst, idx)
			}
		}
		// Primary moves the rotation past a successful pick only; quorum
		// moves it on every read.
		if len(dst) == rq || s.cfg.Protocol == ProtoQuorum {
			s.readRR++
		}
	}
	if len(dst) < need {
		s.Unroutable++
		return nil
	}
	return dst
}

// fetch reads r's block from every target and returns the winning
// reply, already completed, for the caller's decompress-and-reply
// tail: the newest writer version among OK replies, or the first
// target's failed reply when none answered OK (or a repair frame could
// not be staged).
//
// With more than one target (a quorum read) it also read-repairs: a
// target that answered an older version, or no block at all, missed
// the newest write (it was outside the write quorum, or lost its state
// in a crash), so the winner's frame is pushed back at it carrying the
// winner's version, which the storage-side guard makes idempotent and
// never a regression. Repairs are fire-and-forget: the read reply does
// not wait on their acks.
func (s *Server) fetch(p *sim.Proc, r *request, targets []int) *pendingReq {
	hdr, paths := r.hdr, s.storagePaths[r.path]
	ids, prs := make([]uint64, 0, 4), make([]*pendingReq, 0, 4)
	for _, idx := range targets {
		repID, pr := s.begin(1, 1)
		ids, prs = append(ids, repID), append(prs, pr)
		s.dp.send(p, r.path, paths[idx], blockstore.Header{
			Op: blockstore.OpFetch, VMID: hdr.VMID, ReqID: repID,
			SegmentID: hdr.SegmentID, ChunkID: hdr.ChunkID, BlockOff: hdr.BlockOff,
		}, frame{})
	}
	// All fetches are in flight; events are sticky, so waiting on them
	// one by one still means "wait for the slowest", not a serial round
	// trip per target.
	for i, pr := range prs {
		// Only quorum reads bound the wait. A single-replica read waits
		// out a crashed target however long it takes: some fault runs'
		// reads outlast ReplicateTimeout and still succeed, and bounding
		// them would turn those into errors.
		if s.cfg.Protocol != ProtoQuorum {
			p.Wait(pr.done)
		} else if !s.awaitAck(p, pr) {
			// Orphan the fetch: a late reply counts as stale and the
			// target is treated as failed for this read.
			delete(s.pending, ids[i])
			pr.status = blockstore.StatusError
		}
	}
	winner := prs[0]
	for _, pr := range prs {
		if pr.status == blockstore.StatusOK &&
			(winner.status != blockstore.StatusOK || pr.hdr.Version > winner.hdr.Version) {
			winner = pr
		}
	}
	// Return the losing replies' receive descriptors (SmartDS) now; the
	// caller only ever sees the winner.
	for _, pr := range prs {
		if pr != winner {
			pr.releaseDesc()
		}
	}
	if winner.status != blockstore.StatusOK || winner.hdr.Version == 0 {
		return winner
	}
	for i, pr := range prs {
		stale := pr.status == blockstore.StatusNotFound ||
			(pr.status == blockstore.StatusOK && pr.hdr.Version < winner.hdr.Version)
		if pr == winner || !stale {
			continue
		}
		repID, _ := s.begin(1, 1)
		sent := s.dp.send(p, r.path, paths[targets[i]], blockstore.Header{
			Op:        blockstore.OpReplicate,
			Flags:     winner.hdr.Flags,
			Level:     winner.hdr.Level,
			ReqID:     repID,
			VMID:      hdr.VMID,
			SegmentID: hdr.SegmentID,
			ChunkID:   hdr.ChunkID,
			BlockOff:  hdr.BlockOff,
			OrigLen:   winner.hdr.OrigLen,
			Version:   winner.hdr.Version,
		}, winner.f)
		if sent == nil {
			delete(s.pending, repID)
			winner.status = blockstore.StatusError
			break
		}
		s.ReadRepairs++
		s.RepairBytes += winner.f.size
	}
	return winner
}
