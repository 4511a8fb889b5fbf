package rdma

import (
	"bytes"
	"math"
	"testing"

	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/sim"
)

// The tests in this file pin the lifetimes of pooled send records and
// wires. Each one builds a go-back-N schedule in which a resolved send
// still has work pending against its record (a copy serializing, a
// timer armed) or a wire still crossing the fabric, then posts a fresh
// send that a premature recycle would hand the same storage. The
// expected times and counts are those of the unpooled transport.

// dropFirstData drops the first transmission of data sequence 0 and
// nothing else, which forces one go-back-N round over everything
// posted behind it.
func dropFirstData(f *netsim.Fabric) {
	first := true
	f.SetLossFn(func(m *netsim.Message) bool {
		pkt, ok := packetOf(m)
		if ok && pkt.kind == 'D' && pkt.seq == 0 && first {
			first = false
			return true
		}
		return false
	})
}

// lifetimeRun posts sends of size0 and size1 on a 1 GB/s pair whose
// first data transmission is lost, then a 500 KB send as soon as the
// second resolves. It returns the third send's completion time, the
// sender's retransmit count, the sender's TX queue depth when the
// second send resolved, and the sequence numbers of timeouts that
// fired after it resolved.
func lifetimeRun(t *testing.T, size0, size1 float64) (done2 sim.Time, rtx uint64, txq int, lateTimeouts []uint64) {
	t.Helper()
	e := sim.NewEnv()
	f := netsim.NewFabric(e, netsim.Config{WireLatency: 1e-6, MTU: 4096, PerPktOverhead: 80})
	cfg := Config{RetransmitTimeout: 100e-6, MaxRetries: 8}
	sa := NewStack(e, f.NewPort("A", 1e9), cfg)
	sb := NewStack(e, f.NewPort("B", 1e9), cfg)
	qa, _ := connectedQPs(sa, sb)
	dropFirstData(f)

	resolved := false
	Debug = func(ev string, id QPID, seq uint64) {
		if ev == "timeout" && id == qa.ID() && resolved {
			lateTimeouts = append(lateTimeouts, seq)
		}
	}
	defer func() { Debug = nil }()
	e.Go("tx", func(p *sim.Proc) {
		qa.SendSized(nil, size0)
		ev1 := qa.SendSized(nil, size1)
		if v := p.Wait(ev1); v != nil {
			t.Errorf("second send failed: %v", v)
		}
		resolved = true
		txq = sa.Port().TxQueueLen()
		if v := p.Wait(qa.SendSized(nil, 500e3)); v != nil {
			t.Errorf("third send failed: %v", v)
		}
		done2 = p.Now()
	})
	e.Run(0)
	return done2, qa.Retransmits(), txq, lateTimeouts
}

// TestAckWhileRetransmitSerializing: the ack for a send arrives while
// three of its go-back-N copies are still serializing out of the port.
// Their completions must not arm a retransmit timer on whatever send
// the record serves next.
func TestAckWhileRetransmitSerializing(t *testing.T) {
	done2, rtx, txq, late := lifetimeRun(t, 100e3, 500e3)
	if txq != 3 {
		t.Fatalf("TX queue held %d transfers when the send resolved, want its 3 copies", txq)
	}
	if len(late) != 0 {
		t.Fatalf("timeouts fired after the ack: seqs %v", late)
	}
	if rtx != 7 {
		t.Fatalf("retransmits = %d, want 7", rtx)
	}
	if want := 3469.104e-6; math.Abs(done2-want) > 1e-12 {
		t.Fatalf("follow-up send completed at %.9g, want %.9g", done2, want)
	}
}

// TestDoubleArmedTimerAfterResolve: under go-back-N a second copy's
// completion arms a timer over a still-armed one. The ack cancels only
// the newer timer; the older one fires after the send resolved and
// must find the resolved record, not the follow-up send.
func TestDoubleArmedTimerAfterResolve(t *testing.T) {
	done2, rtx, _, late := lifetimeRun(t, 60e3, 50e3)
	if len(late) != 1 || late[0] != 1 {
		t.Fatalf("timeouts after resolve: seqs %v, want exactly the stale timer of seq 1", late)
	}
	if rtx != 3 {
		t.Fatalf("retransmits = %d, want 3", rtx)
	}
	if want := 879.392e-6; math.Abs(done2-want) > 1e-12 {
		t.Fatalf("follow-up send completed at %.9g, want %.9g", done2, want)
	}
}

// TestReconnectWithWiresInFlight resets a busy pair while data and
// acks of the old incarnation are still crossing the fabric. Stale
// packets must be dropped, and the storage they arrive in must not
// corrupt the messages of the new incarnation.
func TestReconnectWithWiresInFlight(t *testing.T) {
	e := sim.NewEnv()
	sa, sb, _ := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	type recv struct {
		seq  uint64
		data string
	}
	var gotA, gotB []recv
	qa.OnRecv = func(m *Message) { gotA = append(gotA, recv{m.Seq, string(m.Data)}) }
	qb.OnRecv = func(m *Message) { gotB = append(gotB, recv{m.Seq, string(m.Data)}) }

	var old []*sim.Event
	for i := 0; i < 4; i++ {
		old = append(old, qa.Send(bytes.Repeat([]byte{'a'}, 20000)))
	}
	old = append(old, qb.Send(bytes.Repeat([]byte{'b'}, 30000)))
	// The new incarnation starts posting while the old one's data is
	// still serializing, so fresh sends draw wires from the pools while
	// stale ones are on the fabric.
	inFlight := 0
	e.At(3e-6, func() {
		inFlight = sa.Port().TxQueueLen() + sb.Port().TxQueueLen() + sb.Port().RxQueueLen()
		Reconnect(qa, qb)
	})
	var fresh []*sim.Event
	e.At(4e-6, func() {
		for _, s := range []string{"x0", "x1", "x2"} {
			fresh = append(fresh, qa.Send([]byte(s)))
			fresh = append(fresh, qb.Send([]byte("y"+s)))
		}
	})
	e.Run(0)

	if inFlight < 3 {
		t.Fatalf("only %d transfers in flight at Reconnect; the test needs wires on the fabric", inFlight)
	}
	for i, ev := range old {
		if ev.Value() != ErrDisconnected {
			t.Fatalf("old-incarnation send %d completed with %v, want ErrDisconnected", i, ev.Value())
		}
	}
	for i, ev := range fresh {
		if !ev.Done() || ev.Value() != nil {
			t.Fatalf("new-incarnation send %d: done=%v value=%v", i, ev.Done(), ev.Value())
		}
	}
	wantB := []recv{{0, "x0"}, {1, "x1"}, {2, "x2"}}
	wantA := []recv{{0, "yx0"}, {1, "yx1"}, {2, "yx2"}}
	if len(gotB) != len(wantB) || len(gotA) != len(wantA) {
		t.Fatalf("deliveries: B got %d, A got %d; want %d and %d", len(gotB), len(gotA), len(wantB), len(wantA))
	}
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("B delivery %d = seq %d %.8q, want seq %d %.8q", i, gotB[i].seq, gotB[i].data, wantB[i].seq, wantB[i].data)
		}
	}
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Fatalf("A delivery %d = %+v, want %+v", i, gotA[i], wantA[i])
		}
	}
	if st := sa.Stats(); st.Resets != 1 || st.Unacked != 0 || st.Retransmits != 0 {
		t.Fatalf("stack A stats %+v", st)
	}
}
