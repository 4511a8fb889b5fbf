package middletier

import (
	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/sim"
)

// This file is the quorum protocol's read path (the second half of the
// ABD scheme): fetch from a read quorum, rank the replies by writer
// version, answer from the newest, and read-repair stale replicas so
// they converge. Fetches and repairs travel through the design's
// datapath send, like every other message.

// readQuorumTargets picks the storage servers a quorum read consults:
// ReadQuorum(Replicas) healthy members of the chunk's placement,
// rotating the start for balance. ok is false when fewer healthy
// members remain than the read quorum — answering from a minority
// could miss the newest acked write, so the read fails instead. A
// chunk never written through this server falls back to up to a
// quorum's worth of arbitrary healthy servers (they will answer
// not-found; no write exists whose visibility needs protecting).
func (s *Server) readQuorumTargets(hdr blockstore.Header) ([]int, bool) {
	rq := s.rep.ReadQuorum(s.cfg.Replicas)
	key := chunkKey{seg: hdr.SegmentID, chunk: hdr.ChunkID}
	set, ok := s.placement[key]
	if !ok {
		hs := s.healthyReplicas()
		if len(hs) == 0 {
			s.Unroutable++
			return nil, false
		}
		if len(hs) > rq {
			hs = hs[:rq]
		}
		return hs, true
	}
	out := make([]int, 0, rq)
	for i := 0; i < len(set) && len(out) < rq; i++ {
		idx := set[(s.readRR+i)%len(set)]
		if !s.serverDown[idx] {
			out = append(out, idx)
		}
	}
	s.readRR++
	if len(out) < rq {
		s.Unroutable++
		return nil, false
	}
	return out, true
}

// quorumFetch runs one quorum read for r. The returned pendingReq is
// the winning reply — newest writer version among OK replies, or a
// failed reply when no target answered OK (or a repair frame could not
// be staged) — already completed, ready for the caller's
// decompress-and-reply tail. ok is false when no read quorum was
// reachable at all.
func (s *Server) quorumFetch(p *sim.Proc, r *request) (*pendingReq, bool) {
	hdr, paths := r.hdr, s.storagePaths[r.path]
	targets, ok := s.readQuorumTargets(hdr)
	if !ok {
		return nil, false
	}
	ids := make([]uint64, len(targets))
	prs := make([]*pendingReq, len(targets))
	for i, idx := range targets {
		repID, pr := s.begin(1, 1)
		ids[i], prs[i] = repID, pr
		s.dp.send(p, r.path, paths[idx], blockstore.Header{
			Op:        blockstore.OpFetch,
			VMID:      hdr.VMID,
			ReqID:     repID,
			SegmentID: hdr.SegmentID,
			ChunkID:   hdr.ChunkID,
			BlockOff:  hdr.BlockOff,
		}, frame{})
	}
	// All fetches are in flight; events are sticky, so waiting on them
	// one by one still means "wait for the slowest", not a serial round
	// trip per target.
	for i, pr := range prs {
		if !awaitAck(s, p, pr) {
			// Orphan the fetch: a late reply counts as stale and the
			// target is treated as failed for this read.
			delete(s.pending, ids[i])
			pr.status = blockstore.StatusError
		}
	}
	var winner *pendingReq
	for _, pr := range prs {
		if pr.status != blockstore.StatusOK {
			continue
		}
		if winner == nil || pr.hdr.Version > winner.hdr.Version {
			winner = pr
		}
	}
	if winner == nil {
		winner = prs[0]
	}
	// Return the losing replies' receive descriptors (SmartDS) now; the
	// caller only ever sees the winner.
	for _, pr := range prs {
		if pr != winner {
			pr.releaseDesc()
		}
	}
	if winner.status == blockstore.StatusOK && winner.hdr.Version > 0 {
		repairSize := winner.size
		if winner.payload != nil {
			repairSize = float64(len(winner.payload))
		}
		for i, pr := range prs {
			if pr == winner {
				continue
			}
			// A replica that answered with an older version — or no block
			// at all — missed the newest write (it was outside the write
			// quorum, or lost its state in a crash). Push the winner's
			// frame back at it, carrying the winner's version so the
			// storage-side guard makes the repair idempotent and never a
			// regression. Fire-and-forget: the read reply must not wait on
			// repair acks.
			stale := pr.status == blockstore.StatusNotFound ||
				(pr.status == blockstore.StatusOK && pr.hdr.Version < winner.hdr.Version)
			if !stale {
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
			}, frame{data: winner.payload, size: repairSize})
			if sent == nil {
				s.abandon(repID)
				winner.status = blockstore.StatusError
				break
			}
			s.ReadRepairs++
			s.RepairBytes += repairSize
		}
	}
	return winner, true
}
