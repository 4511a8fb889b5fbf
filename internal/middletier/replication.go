package middletier

import (
	"fmt"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
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
// shipped the frame to (the BytesStored accounting factor). rh is r's
// replicate message, sent with frame f to every replica.
//
// Each attempt asks the placer for a fresh write set and walks it in
// hops. Primary and quorum send one hop to every member, succeeding
// when all of them, or the write quorum of the replication factor,
// acked OK. Chain sends one hop per member, head first, each after its
// predecessor acked: the middle tier stays the sequencer (storage
// servers do not forward to each other), so its send bandwidth matches
// fan-out while ack latency and ordering match chain replication. A
// hop that times out is orphaned — completePending counts its late
// acks as stale, and versioned appends make the re-send idempotent —
// and the attempt restarts against a refreshed set.
func (s *Server) replicate(p *sim.Proc, r *request, rh blockstore.Header, f frame) (blockstore.Status, int) {
	proto := s.cfg.Protocol
	stored := 0
attempts:
	for attempt := 1; attempt <= maxReplicateAttempts; attempt++ {
		set := s.writeSet(rh)
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
			s.RetryBytes += f.size * float64(len(set))
		}
		stored = len(set)
		worst := blockstore.StatusOK
		for lo := 0; lo < len(set); lo += hop {
			members := set[lo : lo+hop]
			a0 := p.Now()
			pr, ok := s.fanOut(p, r.path, members, need, rh, f)
			pr.set, pr.sentAt = members, p.Now()
			// A frame gathered from device memory (SmartDS's Assemble
			// module) names its replicate self-time as message assembly
			// so blame profiles show the shift across designs.
			if f.dev != nil && r.tr != nil && pr.sentAt > a0 {
				r.tr.Span(a0, pr.sentAt, "mt", "replicate.assemble", r.tid, r.tid, "mt", "replicate", trace.KindService, "")
			}
			if !ok || !s.awaitAck(p, pr) {
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
			s.noteWait(p, r, pr)
			if pr.status != blockstore.StatusOK {
				worst = pr.status
			}
		}
		// A member crashed mid-flight and a concurrent write substituted
		// a fresh replica into its slot: the backfill snapshot may predate
		// this write, which never reached the substitute, so the
		// all-replica protocols re-send to the current set before the
		// client hears OK. Quorum tolerates the gap by construction.
		if worst == blockstore.StatusOK && proto != ProtoQuorum && s.place.moved(keyOf(rh), set) {
			detail := fmt.Sprintf("attempt=%d replicas=%d", attempt, len(set))
			if proto == ProtoChain {
				detail = "protocol=chain " + detail
			}
			s.cfg.Trace.Emit(p.Now(), "mt", "replicate-resync", detail)
			continue
		}
		return worst, stored
	}
	return blockstore.StatusError, stored
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
	hdr := r.hdr
	fh := blockstore.Header{Op: blockstore.OpFetch, VMID: hdr.VMID,
		SegmentID: hdr.SegmentID, ChunkID: hdr.ChunkID, BlockOff: hdr.BlockOff}
	prs := make([]*pendingReq, 0, 4)
	for i := range targets {
		pr, _ := s.fanOut(p, r.path, targets[i:i+1], 1, fh, frame{})
		prs = append(prs, pr)
	}
	// All fetches are in flight; events are sticky, so waiting on them
	// one by one still means "wait for the slowest", not a serial round
	// trip per target.
	for _, pr := range prs {
		// Only quorum reads bound the wait. A single-replica read waits
		// out a crashed target however long it takes: some fault runs'
		// reads outlast ReplicateTimeout and still succeed, and bounding
		// them would turn those into errors.
		if s.cfg.Protocol != ProtoQuorum {
			p.Wait(pr.done)
		} else if !s.awaitAck(p, pr) {
			// The fetch is orphaned: a late reply counts as stale and the
			// target is treated as failed for this read.
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
		if _, ok := s.fanOut(p, r.path, targets[i:i+1], 1, blockstore.Header{
			Op:        blockstore.OpReplicate,
			Flags:     winner.hdr.Flags,
			Level:     winner.hdr.Level,
			VMID:      hdr.VMID,
			SegmentID: hdr.SegmentID,
			ChunkID:   hdr.ChunkID,
			BlockOff:  hdr.BlockOff,
			OrigLen:   winner.hdr.OrigLen,
			Version:   winner.hdr.Version,
		}, winner.f); !ok {
			winner.status = blockstore.StatusError
			break
		}
		s.ReadRepairs++
		s.RepairBytes += winner.f.size
	}
	return winner
}
