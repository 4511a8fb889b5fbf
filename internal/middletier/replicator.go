package middletier

import (
	"fmt"
	"slices"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/sim"
)

// This file defines the pluggable replication protocol layer. The
// request pipeline (pipeline.go) builds the replicate message and each
// design's datapath transports it; everything protocol-shaped — fan-out order, ack
// thresholds, timeout/retry, degraded-mode behavior — lives behind the
// Replicator interface so the three protocols the comparison harness
// studies (primary fan-out, chain, ABD-style quorum) share one
// contract and one durability checker (cluster.CheckAckedWrites).

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

// SendFn issues one replicate message, tagged with repID, to every
// server in set through whatever front end the design has. The write
// pipeline provides it; replicators may call it several times per write,
// each time with a fresh repID and a (possibly refreshed or partial)
// replica set.
type SendFn func(repID uint64, set []int)

// Replicator is one replication protocol: it owns fan-out order, ack
// accounting, timeout/retry, and degraded-mode substitution for the
// write path, and declares the quorum sizes the read path and the
// durability checker derive their invariants from.
type Replicator interface {
	// Name is the protocol's table label.
	Name() string
	// Replicate runs one write's replication and returns the status the
	// client ack carries plus how many replicas the frame was sent to
	// on the deciding attempt (the BytesStored accounting factor).
	Replicate(h replicatorHost, p *sim.Proc, hdr blockstore.Header, frameSize float64, send SendFn) (blockstore.Status, int)
	// WriteQuorum is how many replicas out of a set of n must hold an
	// acked write for the protocol's durability contract to hold.
	WriteQuorum(n int) int
	// ReadQuorum is how many replicas out of n a read consults; every
	// write quorum must intersect every read quorum.
	ReadQuorum(n int) int
}

// replicatorHost is the slice of Server a Replicator drives: pending
// fan-out bookkeeping, replica placement, and retry accounting. Tests
// fake it to exercise each protocol in isolation.
type replicatorHost interface {
	// replicaSet resolves the write's replica fan-out (placement lookup
	// with degraded-mode substitution); empty means unroutable. The
	// returned slice is the caller's to keep: it never aliases the live
	// placement table.
	replicaSet(hdr blockstore.Header) []int
	// currentSet returns the chunk's placement as it stands right now —
	// no substitution, no counters — or nil when the chunk has none.
	// Replicators that promise all-replica durability use it to detect a
	// fail-over that mutated the placement while an attempt was in
	// flight.
	currentSet(hdr blockstore.Header) []int
	// begin registers a fan-out expecting `expected` replies, succeeding
	// at `need` OK acks, and returns its id plus the pending entry.
	begin(expected, need int) (uint64, *pendingReq)
	// abandon orphans a timed-out fan-out; stragglers for it count as
	// stale acks instead of completing anything.
	abandon(repID uint64)
	// noteRetry charges one re-issued fan-out to the retry counters.
	noteRetry(frameSize float64, replicas int)
	// replicateTimeout bounds one ack wait; <= 0 disables the timeout.
	replicateTimeout() float64
	// replicas is the configured replication factor (quorum sizing).
	replicas() int
	// emit records one trace event on the middle tier's track.
	emit(now float64, event, detail string)
	// noteWait records a completed fan-out's straggler wait — the
	// interval from the attempt's sends being posted to the deciding
	// ack — on the request's trace for critical-path blame.
	noteWait(hdr blockstore.Header, pr *pendingReq)
}

// placementMoved reports whether the chunk's placement changed out from
// under an attempt that fanned out to `set`. That happens when a member
// crashed mid-flight and a concurrent write substituted a fresh replica
// into the slot: the backfill snapshot may predate this write's appends
// on the survivors, and this write never sent to the substitute, so the
// all-replica protocols must re-send before acking the client (the
// versioned appends make the re-send idempotent).
func placementMoved(h replicatorHost, hdr blockstore.Header, set []int) bool {
	cur := h.currentSet(hdr)
	return cur != nil && !slices.Equal(cur, set)
}

// awaitAck waits for a fan-out to complete, bounded by the replicate
// timeout when one is set; false means it timed out.
func awaitAck(h replicatorHost, p *sim.Proc, pr *pendingReq) bool {
	if h.replicateTimeout() <= 0 {
		p.Wait(pr.done)
		return true
	}
	_, ok := p.WaitTimeout(pr.done, h.replicateTimeout())
	return ok
}

// newReplicator builds the Replicator for a protocol.
func newReplicator(p Protocol) Replicator {
	switch p {
	case ProtoChain:
		return chainReplicator{}
	case ProtoQuorum:
		return quorumReplicator{}
	default:
		return primaryReplicator{}
	}
}

// primaryReplicator is the seed protocol: one fan-out to every replica,
// success when all of them acked, bounded timeout/retry with a
// refreshed set per attempt.
type primaryReplicator struct{}

func (primaryReplicator) Name() string          { return ProtoPrimary.String() }
func (primaryReplicator) WriteQuorum(n int) int { return n }
func (primaryReplicator) ReadQuorum(n int) int  { return 1 }

func (primaryReplicator) Replicate(h replicatorHost, p *sim.Proc, hdr blockstore.Header, frameSize float64,
	send SendFn) (blockstore.Status, int) {
	return fanOut(h, p, hdr, frameSize, send, 0)
}

// fanOut is the replication primary and quorum share: send the frame to
// every replica at once and succeed at `quorum` OK acks (0: all of
// them), with bounded timeout/retry against a refreshed set per
// attempt.
func fanOut(h replicatorHost, p *sim.Proc, hdr blockstore.Header, frameSize float64,
	send SendFn, quorum int) (blockstore.Status, int) {
	stored := 0
	for attempt := 0; attempt < maxReplicateAttempts; attempt++ {
		set := h.replicaSet(hdr)
		need := len(set)
		if quorum > 0 {
			need = quorum
		}
		if len(set) == 0 || len(set) < need {
			// No reachable replica at all, or fewer than the write quorum:
			// fail the write rather than block the client forever or ack a
			// write a majority never held.
			return blockstore.StatusError, stored
		}
		if attempt > 0 {
			h.noteRetry(frameSize, len(set))
		}
		repID, pr := h.begin(len(set), need)
		send(repID, set)
		pr.set, pr.sentAt = set, p.Now()
		stored = len(set)
		if awaitAck(h, p, pr) {
			h.noteWait(hdr, pr)
			if quorum == 0 && pr.status == blockstore.StatusOK && placementMoved(h, hdr, set) {
				// A member crashed mid-flight and was substituted: re-send
				// so the substitute holds this write too before the client
				// hears OK.
				h.emit(p.Now(), "replicate-resync",
					fmt.Sprintf("attempt=%d replicas=%d", attempt+1, len(set)))
				continue
			}
			return pr.status, stored
		}
		// Timed out: orphan this fan-out — completePending counts acks
		// for abandoned ids as stale, so stragglers from slow-but-alive
		// replicas are harmless (the storage write is idempotent: a later
		// retry just appends a newer version) — and go around with a
		// refreshed set.
		h.abandon(repID)
		if quorum > 0 {
			h.emit(p.Now(), "replicate-timeout",
				fmt.Sprintf("protocol=quorum attempt=%d replicas=%d need=%d ackset=%x",
					attempt+1, len(set), need, encodeAckSet(repID, attempt+1, pr)))
		} else {
			h.emit(p.Now(), "replicate-timeout",
				fmt.Sprintf("attempt=%d replicas=%d", attempt+1, len(set)))
		}
	}
	return blockstore.StatusError, stored
}

// chainReplicator forwards the frame along the replica set one hop at a
// time: head, then each successor after its predecessor acked, client
// ack after the tail acked. The simulation keeps the middle tier as the
// sequencer (storage servers do not forward to each other), so the
// middle tier's send bandwidth matches primary fan-out while ack
// latency and ordering match chain replication. A hop timeout restarts
// the whole chain against a refreshed set.
type chainReplicator struct{}

func (chainReplicator) Name() string          { return ProtoChain.String() }
func (chainReplicator) WriteQuorum(n int) int { return n }
func (chainReplicator) ReadQuorum(n int) int  { return 1 }

func (chainReplicator) Replicate(h replicatorHost, p *sim.Proc, hdr blockstore.Header, frameSize float64,
	send SendFn) (blockstore.Status, int) {
	stored := 0
	for attempt := 0; attempt < maxReplicateAttempts; attempt++ {
		set := h.replicaSet(hdr)
		if len(set) == 0 {
			return blockstore.StatusError, stored
		}
		if attempt > 0 {
			h.noteRetry(frameSize, len(set))
		}
		stored = len(set)
		worst := blockstore.StatusOK
		timedOut := false
		for hop := 0; hop < len(set); hop++ {
			repID, pr := h.begin(1, 1)
			send(repID, set[hop:hop+1])
			pr.set, pr.sentAt = set[hop:hop+1], p.Now()
			if !awaitAck(h, p, pr) {
				h.abandon(repID)
				h.emit(p.Now(), "replicate-timeout",
					fmt.Sprintf("protocol=chain attempt=%d hop=%d/%d", attempt+1, hop+1, len(set)))
				timedOut = true
				break
			}
			h.noteWait(hdr, pr)
			if pr.status != blockstore.StatusOK {
				worst = pr.status
			}
		}
		if !timedOut {
			if worst == blockstore.StatusOK && placementMoved(h, hdr, set) {
				// The chain's membership changed while this write was mid-
				// hop (crash + substitution): run the chain again on the
				// current set before acking, so the substitute holds it.
				h.emit(p.Now(), "replicate-resync",
					fmt.Sprintf("protocol=chain attempt=%d replicas=%d", attempt+1, len(set)))
				continue
			}
			return worst, stored
		}
	}
	return blockstore.StatusError, stored
}

// quorumReplicator is the ABD-style write: fan out to every replica at
// once, succeed at a majority of the replication factor. Acks beyond
// the quorum complete against an already-finished fan-out and count as
// stale (expected for this protocol); a degraded set smaller than the
// write quorum fails the write outright — a minority can never promise
// durability.
type quorumReplicator struct{}

func (quorumReplicator) Name() string { return ProtoQuorum.String() }

func (quorumReplicator) WriteQuorum(n int) int { return n/2 + 1 }
func (quorumReplicator) ReadQuorum(n int) int  { return n/2 + 1 }

func (q quorumReplicator) Replicate(h replicatorHost, p *sim.Proc, hdr blockstore.Header, frameSize float64,
	send SendFn) (blockstore.Status, int) {
	return fanOut(h, p, hdr, frameSize, send, q.WriteQuorum(h.replicas()))
}
