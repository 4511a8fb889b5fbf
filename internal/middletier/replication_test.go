package middletier

import (
	"slices"
	"testing"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// newReplicateServer builds a fakePath server of n storage servers
// running proto with the given ReplicateTimeout (0: unbounded). The
// test chunk (7, 1) is placed on set; an empty set leaves it unwritten.
func newReplicateServer(t *testing.T, proto Protocol, n int, timeout float64, set ...int) (*Server, *fakePath, *trace.Tracer) {
	t.Helper()
	s, f, tr := newFakePipeline(t, proto, n)
	s.cfg.ReplicateTimeout = timeout
	if len(set) > 0 {
		pin(s, set...)
	}
	return s, f, tr
}

// runReplicate drives one replicate of chunk (7, 1) to completion in
// virtual time, sending each hop through the fakePath the way the
// write pipeline does. It returns the client status and how many
// replicas the deciding attempt stored.
func runReplicate(t *testing.T, s *Server) (blockstore.Status, int) {
	t.Helper()
	var st blockstore.Status
	stored := -1
	r := &request{hdr: blockstore.Header{SegmentID: 7, ChunkID: 1}}
	rh := blockstore.Header{Op: blockstore.OpReplicate, SegmentID: 7, ChunkID: 1}
	s.env.Go("test.replicate", func(p *sim.Proc) {
		st, stored = s.replicate(p, r, rh, frame{size: 4096})
	})
	s.env.Run(s.env.Now() + 1)
	if stored < 0 {
		t.Fatal("replicate never returned")
	}
	return st, stored
}

// replyAfter scripts every replica to answer after d with status st.
func replyAfter(d float64, st blockstore.Status) func(blockstore.Header, int) (float64, blockstore.Status, bool) {
	return func(blockstore.Header, int) (float64, blockstore.Status, bool) { return d, st, false }
}

// replyInTurn scripts server i to answer with sts[i], (i+1)*10us after
// each send.
func replyInTurn(sts ...blockstore.Status) func(blockstore.Header, int) (float64, blockstore.Status, bool) {
	return func(_ blockstore.Header, to int) (float64, blockstore.Status, bool) {
		return float64(to+1) * 10e-6, sts[to], false
	}
}

// traced returns the details of the middle tier's trace events called
// name.
func traced(tr *trace.Tracer, name string) []string {
	var out []string
	for _, ev := range tr.Events() {
		if ev.Component == "mt" && ev.Name == name {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// hopIDs returns the distinct fan-out ids of the sends, in send order.
func hopIDs(f *fakePath) []uint64 {
	var ids []uint64
	for _, sd := range f.sends {
		if len(ids) == 0 || ids[len(ids)-1] != sd.id {
			ids = append(ids, sd.id)
		}
	}
	return ids
}

func TestReplicatorQuorumSizes(t *testing.T) {
	cases := []struct {
		p         Protocol
		n, wq, rq int
	}{
		{ProtoPrimary, 3, 3, 1},
		{ProtoChain, 3, 3, 1},
		{ProtoQuorum, 3, 2, 2},
		{ProtoQuorum, 5, 3, 3},
		{ProtoQuorum, 4, 3, 3},
	}
	for _, c := range cases {
		if got := c.p.WriteQuorum(c.n); got != c.wq {
			t.Errorf("%s.WriteQuorum(%d) = %d, want %d", c.p, c.n, got, c.wq)
		}
		if got := c.p.ReadQuorum(c.n); got != c.rq {
			t.Errorf("%s.ReadQuorum(%d) = %d, want %d", c.p, c.n, got, c.rq)
		}
		// Every write quorum must intersect every read quorum.
		if c.p.WriteQuorum(c.n)+c.p.ReadQuorum(c.n) <= c.n {
			t.Errorf("%s: WQ+RQ = %d does not intersect at n=%d",
				c.p, c.p.WriteQuorum(c.n)+c.p.ReadQuorum(c.n), c.n)
		}
	}
}

func TestPrimaryReplicatorAcksWhenAllReply(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoPrimary, 3, 1e-3)
	f.reply = replyAfter(10e-6, blockstore.StatusOK)
	st, stored := runReplicate(t, s)
	if st != blockstore.StatusOK || stored != 3 {
		t.Fatalf("status=%v stored=%d, want OK/3", st, stored)
	}
	if got := f.sentTo(0); !slices.Equal(got, []int{0, 1, 2}) || len(hopIDs(f)) != 1 {
		t.Fatalf("sends to %v in %d fan-outs, want one fan-out to [0 1 2]", got, len(hopIDs(f)))
	}
	if s.ReplicateRetries != 0 || s.StaleAcks != 0 {
		t.Fatalf("retries=%d stale=%d", s.ReplicateRetries, s.StaleAcks)
	}
}

func TestPrimaryReplicatorWorstStatusWins(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoPrimary, 3, 0) // no timeout: pure fan-in
	f.reply = replyInTurn(blockstore.StatusOK, blockstore.StatusCorrupt, blockstore.StatusOK)
	if st, _ := runReplicate(t, s); st != blockstore.StatusCorrupt {
		t.Fatalf("status = %v, want Corrupt", st)
	}
}

// TestPrimaryReplicatorRetryIgnoresStaleAck pins the stale-ack
// regression: a replica that was only slow — not dead — acks after the
// attempt timed out and a retry began under a fresh repID. That
// straggler must count as stale, never toward the retry's fan-in
// (double-counting it would ack the client with the frame on fewer
// replicas than the protocol promised).
func TestPrimaryReplicatorRetryIgnoresStaleAck(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoPrimary, 4, 1e-3, 0, 1, 2)
	var first uint64
	f.reply = func(hdr blockstore.Header, to int) (float64, blockstore.Status, bool) {
		if first == 0 {
			first = hdr.ReqID
		}
		if hdr.ReqID == first {
			// Attempt 1: two acks arrive, server 2's lands after the 1ms
			// timeout, while the retry is in flight.
			return []float64{10e-6, 20e-6, 1.05e-3}[to], blockstore.StatusOK, false
		}
		// The retry completes 100-120us in, after the straggler arrived:
		// a double-count bug would complete it one real ack short.
		return 100e-6 + float64(to)*10e-6, blockstore.StatusOK, false
	}
	st, stored := runReplicate(t, s)
	if st != blockstore.StatusOK || stored != 3 {
		t.Fatalf("status=%v stored=%d, want OK/3", st, stored)
	}
	if s.ReplicateRetries != 1 {
		t.Fatalf("retries = %d, want 1", s.ReplicateRetries)
	}
	if ids := hopIDs(f); len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("want 2 fan-outs under distinct repIDs, got ids %v", ids)
	}
	if s.StaleAcks != 1 {
		t.Fatalf("stale acks = %d, want exactly the straggler", s.StaleAcks)
	}
	if len(s.pending) != 0 {
		t.Fatalf("pending fan-outs leaked: %d", len(s.pending))
	}
}

func TestPrimaryReplicatorUnroutableFails(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoPrimary, 3, 1e-3)
	for i := 0; i < 3; i++ {
		s.SetServerDown(i, true)
	}
	st, stored := runReplicate(t, s)
	if st != blockstore.StatusError || stored != 0 || len(f.sends) != 0 {
		t.Fatalf("status=%v stored=%d sends=%v, want immediate error", st, stored, f.sentTo(0))
	}
	if s.Unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1", s.Unroutable)
	}
}

func TestPrimaryReplicatorExhaustsAttempts(t *testing.T) {
	s, f, tr := newReplicateServer(t, ProtoPrimary, 3, 100e-6)
	f.reply = func(blockstore.Header, int) (float64, blockstore.Status, bool) { return 0, 0, true } // nobody ever acks
	if st, _ := runReplicate(t, s); st != blockstore.StatusError {
		t.Fatalf("status = %v, want Error after exhausted attempts", st)
	}
	if n := len(hopIDs(f)); n != maxReplicateAttempts || s.ReplicateRetries != maxReplicateAttempts-1 {
		t.Fatalf("fan-outs=%d retries=%d, want %d attempts", n, s.ReplicateRetries, maxReplicateAttempts)
	}
	if got := traced(tr, "replicate-timeout"); len(got) != maxReplicateAttempts || got[0] != "attempt=1 replicas=3" {
		t.Fatalf("timeouts %q, want one per attempt", got)
	}
}

func TestChainReplicatorSequencesHops(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoChain, 3, 1e-3)
	f.reply = replyAfter(10e-6, blockstore.StatusOK)
	st, stored := runReplicate(t, s)
	if st != blockstore.StatusOK || stored != 3 {
		t.Fatalf("status=%v stored=%d, want OK/3", st, stored)
	}
	if got := f.sentTo(0); !slices.Equal(got, []int{0, 1, 2}) || len(hopIDs(f)) != 3 {
		t.Fatalf("sends to %v, want 3 single-replica hops to [0 1 2]", got)
	}
	for i := 1; i < len(f.sends); i++ {
		// Each hop departs only after the predecessor acked: 10us apart.
		if f.sends[i].at < f.sends[i-1].at+10e-6 {
			t.Fatalf("hop %d sent at %g, before predecessor's ack (%g+10us)", i, f.sends[i].at, f.sends[i-1].at)
		}
	}
}

func TestChainReplicatorHopTimeoutRestartsChain(t *testing.T) {
	// Attempt 1: the head acks, the middle member (server 1) crashes as
	// the hop reaches it. Attempt 2 runs on the refreshed set {0,3,2}.
	s, f, tr := newReplicateServer(t, ProtoChain, 4, 200e-6, 0, 1, 2)
	f.reply = func(_ blockstore.Header, to int) (float64, blockstore.Status, bool) {
		if to == 1 {
			s.SetServerDown(1, true)
			return 0, 0, true
		}
		return 10e-6, blockstore.StatusOK, false
	}
	st, stored := runReplicate(t, s)
	if st != blockstore.StatusOK || stored != 3 {
		t.Fatalf("status=%v stored=%d, want OK/3", st, stored)
	}
	if s.ReplicateRetries != 1 {
		t.Fatalf("retries = %d, want 1 (whole-chain restart)", s.ReplicateRetries)
	}
	// 2 hops on attempt 1 (head + dead middle), 3 on attempt 2.
	if got := f.sentTo(0); !slices.Equal(got, []int{0, 1, 0, 3, 2}) {
		t.Fatalf("hops to %v, want [0 1 0 3 2]", got)
	}
	if got := traced(tr, "replicate-timeout"); !slices.Equal(got, []string{"protocol=chain attempt=1 hop=2/3"}) {
		t.Fatalf("timeouts %q, want the chain's hop 2/3", got)
	}
}

func TestChainReplicatorPropagatesWorstHopStatus(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoChain, 3, 0)
	f.reply = replyInTurn(blockstore.StatusOK, blockstore.StatusCorrupt, blockstore.StatusOK)
	if st, _ := runReplicate(t, s); st != blockstore.StatusCorrupt {
		t.Fatalf("status = %v, want the middle hop's Corrupt", st)
	}
}

func TestQuorumReplicatorAcksAtMajority(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoQuorum, 3, 1e-3)
	f.reply = func(_ blockstore.Header, to int) (float64, blockstore.Status, bool) {
		return []float64{10e-6, 20e-6, 5e-3}[to], blockstore.StatusOK, false // server 2 lags past the timeout
	}
	st, stored := runReplicate(t, s)
	if st != blockstore.StatusOK || stored != 3 {
		t.Fatalf("status=%v stored=%d, want OK at majority", st, stored)
	}
	if s.ReplicateRetries != 0 {
		t.Fatalf("retries = %d: the majority ack must beat the timeout", s.ReplicateRetries)
	}
	if s.StaleAcks != 1 {
		t.Fatalf("stale = %d, want the post-quorum laggard counted stale", s.StaleAcks)
	}
}

func TestQuorumReplicatorFailsBelowWriteQuorum(t *testing.T) {
	// Two of three replicas crashed with no substitutes: one reachable
	// member is a minority, so the write must fail without a send.
	s, f, _ := newReplicateServer(t, ProtoQuorum, 3, 1e-3, 0, 1, 2)
	s.SetServerDown(1, true)
	s.SetServerDown(2, true)
	st, stored := runReplicate(t, s)
	if st != blockstore.StatusError || stored != 0 {
		t.Fatalf("status=%v stored=%d, want refusal", st, stored)
	}
	if len(f.sends) != 0 {
		t.Fatalf("sends to %v, want none for a minority set", f.sentTo(0))
	}
}

func TestQuorumReplicatorMinorityErrorStillOK(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoQuorum, 3, 0)
	f.reply = replyInTurn(blockstore.StatusOK, blockstore.StatusError, blockstore.StatusOK)
	if st, _ := runReplicate(t, s); st != blockstore.StatusOK {
		t.Fatalf("status = %v: a minority error must not fail a quorum write", st)
	}
}

func TestQuorumReplicatorMajorityErrorFails(t *testing.T) {
	s, f, _ := newReplicateServer(t, ProtoQuorum, 3, 0)
	f.reply = replyInTurn(blockstore.StatusError, blockstore.StatusError, blockstore.StatusOK)
	if st, _ := runReplicate(t, s); st != blockstore.StatusError {
		t.Fatalf("status = %v, want Error when the quorum cannot be met", st)
	}
}

func TestQuorumTimeoutTraceCountsAcks(t *testing.T) {
	s, f, tr := newReplicateServer(t, ProtoQuorum, 5, 100e-6)
	s.cfg.Replicas = 5
	s.place = newPlacer(5, 5, ProtoQuorum)
	f.reply = func(_ blockstore.Header, to int) (float64, blockstore.Status, bool) {
		return 10e-6, blockstore.StatusOK, to != 0 // one ack: short of quorum
	}
	if st, _ := runReplicate(t, s); st != blockstore.StatusError {
		t.Fatalf("status = %v, want Error", st)
	}
	got := traced(tr, "replicate-timeout")
	if len(got) == 0 || got[0] != "protocol=quorum attempt=1 replicas=5 need=3 acked=1" {
		t.Fatalf("timeout trace should count the acks collected: %q", got)
	}
}

// TestReplicatorResyncAfterMidFlightSubstitution pins the fail-over
// race the full fault battery exposed: a write's fan-out is acked by
// the members it reached, but while it was in flight one member
// crashed and a concurrent write substituted a fresh replica into the
// chunk's placement. The backfill snapshot can predate this write's
// appends, so the all-replica protocols must notice the placement
// moved and re-send to the current set before acking the client.
func TestReplicatorResyncAfterMidFlightSubstitution(t *testing.T) {
	for _, proto := range []Protocol{ProtoPrimary, ProtoChain} {
		t.Run(proto.String(), func(t *testing.T) {
			s, f, tr := newReplicateServer(t, proto, 4, 1e-3, 0, 1, 2)
			f.reply = replyAfter(10e-6, blockstore.StatusOK)
			// Mid-flight (5us: after the sends, before the acks), server 1
			// crashes and a concurrent write substitutes server 3.
			s.env.After(5e-6, func() {
				s.SetServerDown(1, true)
				s.writeSet(blockstore.Header{SegmentID: 7, ChunkID: 1})
			})
			st, stored := runReplicate(t, s)
			if st != blockstore.StatusOK || stored != 3 {
				t.Fatalf("status=%v stored=%d, want OK/3", st, stored)
			}
			if s.ReplicateRetries != 1 {
				t.Fatalf("retries = %d, want exactly one resync round", s.ReplicateRetries)
			}
			// The resync round must have reached the substitute.
			if got := f.sentTo(0); !slices.Contains(got, 3) {
				t.Fatalf("substitute never received the write: sends to %v", got)
			}
			if got := traced(tr, "replicate-resync"); len(got) != 1 {
				t.Fatalf("resync traces %q, want one", got)
			}
		})
	}
}
