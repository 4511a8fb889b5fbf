package rdma

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/sim"
)

// pairStacks builds two connected stacks on a private fabric.
func pairStacks(e *sim.Env, rate float64) (*Stack, *Stack, *netsim.Fabric) {
	f := netsim.NewFabric(e, netsim.Config{WireLatency: 1e-6, MTU: 4096, PerPktOverhead: 80})
	sa := NewStack(e, f.NewPort("A", rate), DefaultConfig())
	sb := NewStack(e, f.NewPort("B", rate), DefaultConfig())
	return sa, sb, f
}

// packetOf returns the transport packet a fabric message carries, for
// loss predicates that drop by kind or sequence.
func packetOf(m *netsim.Message) (*packet, bool) {
	w, ok := m.Payload.(*wire)
	if !ok {
		return nil, false
	}
	return &w.pkt, true
}

func connectedQPs(sa, sb *Stack) (*QP, *QP) {
	qa, qb := sa.CreateQP(), sb.CreateQP()
	Connect(qa, qb)
	return qa, qb
}

func TestSendDeliversRealBytes(t *testing.T) {
	e := sim.NewEnv()
	sa, sb, _ := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	var got []byte
	qb.OnRecv = func(m *Message) { got = append([]byte(nil), m.Data...) }
	payload := []byte("write-request: header+block")
	var ackErr interface{}
	e.Go("tx", func(p *sim.Proc) { ackErr = p.Wait(qa.Send(payload)) })
	e.Run(0)
	if ackErr != nil {
		t.Fatalf("send completed with %v", ackErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q", got)
	}
	if qa.Unacked() != 0 {
		t.Fatalf("unacked = %d after ack", qa.Unacked())
	}
}

func TestInOrderDelivery(t *testing.T) {
	e := sim.NewEnv()
	sa, sb, _ := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	var seqs []uint64
	qb.OnRecv = func(m *Message) { seqs = append(seqs, m.Seq) }
	e.Go("tx", func(p *sim.Proc) {
		var evs []*sim.Event
		for i := 0; i < 20; i++ {
			evs = append(evs, qa.SendSized(nil, 4096))
		}
		p.WaitAll(evs...)
	})
	e.Run(0)
	if len(seqs) != 20 {
		t.Fatalf("delivered %d messages", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("out of order delivery: %v", seqs)
		}
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	e := sim.NewEnv()
	sa, sb, f := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	delivered := 0
	qb.OnRecv = func(*Message) { delivered++ }

	// Drop the first transmission of every data message once.
	dropped := map[uint64]bool{}
	f.SetLossFn(func(m *netsim.Message) bool {
		pkt, ok := packetOf(m)
		if !ok || pkt.kind != 'D' {
			return false
		}
		if !dropped[pkt.seq] {
			dropped[pkt.seq] = true
			return true
		}
		return false
	})
	var errs int
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if v := p.Wait(qa.SendSized(nil, 1024)); v != nil {
				errs++
			}
		}
	})
	e.Run(0)
	if delivered != 5 || errs != 0 {
		t.Fatalf("delivered=%d errs=%d", delivered, errs)
	}
}

func TestGoBackNOnGap(t *testing.T) {
	// Drop only message seq=1's first transmission while later ones get
	// through; the receiver must discard out-of-order arrivals and end
	// with everything delivered in order.
	e := sim.NewEnv()
	sa, sb, f := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	var seqs []uint64
	qb.OnRecv = func(m *Message) { seqs = append(seqs, m.Seq) }
	first := true
	f.SetLossFn(func(m *netsim.Message) bool {
		pkt, ok := packetOf(m)
		if ok && pkt.kind == 'D' && pkt.seq == 1 && first {
			first = false
			return true
		}
		return false
	})
	e.Go("tx", func(p *sim.Proc) {
		evs := []*sim.Event{}
		for i := 0; i < 4; i++ {
			evs = append(evs, qa.SendSized(nil, 512))
		}
		p.WaitAll(evs...)
	})
	e.Run(0)
	if len(seqs) != 4 {
		t.Fatalf("delivered %d, want 4 (seqs=%v)", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("delivery order broken: %v", seqs)
		}
	}
}

func TestRetriesExhausted(t *testing.T) {
	e := sim.NewEnv()
	f := netsim.NewFabric(e, netsim.Config{WireLatency: 1e-6})
	sa := NewStack(e, f.NewPort("A", 12.5e9), Config{RetransmitTimeout: 10e-6, MaxRetries: 2})
	sb := NewStack(e, f.NewPort("B", 12.5e9), DefaultConfig())
	qa, qb := connectedQPs(sa, sb)
	_ = qb
	f.SetLossFn(func(m *netsim.Message) bool {
		pkt, ok := packetOf(m)
		return ok && pkt.kind == 'D' // black-hole all data
	})
	var result interface{}
	e.Go("tx", func(p *sim.Proc) { result = p.Wait(qa.SendSized(nil, 256)) })
	e.Run(0)
	if result != ErrRetriesExhausted {
		t.Fatalf("want ErrRetriesExhausted, got %v", result)
	}
	if qa.Unacked() != 0 {
		t.Fatalf("failed send still pending")
	}
}

func TestThroughputNearLineRate(t *testing.T) {
	// Pipelined 1 MB messages over a 12.5 GB/s (100 Gbps) port should
	// sustain close to line rate.
	e := sim.NewEnv()
	sa, sb, _ := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	received := 0.0
	qb.OnRecv = func(m *Message) { received += m.Size }
	const window = 16
	inflight := 0
	stop := false
	var pump func()
	pump = func() {
		for inflight < window && !stop {
			inflight++
			ev := qa.SendSized(nil, 1<<20)
			ev.OnTrigger(func(interface{}) {
				inflight--
				pump()
			})
		}
	}
	e.Go("tx", func(p *sim.Proc) { pump() })
	dur := 20e-3
	e.After(dur, func() { stop = true })
	e.Run(dur + 1e-3)
	gbps := received * 8 / dur / 1e9
	if gbps < 85 {
		t.Fatalf("achieved %.1f Gbps, want near 100", gbps)
	}
}

func TestUnconnectedSendPanics(t *testing.T) {
	e := sim.NewEnv()
	sa, _, _ := pairStacks(e, 12.5e9)
	qp := sa.CreateQP()
	defer func() {
		if recover() == nil {
			t.Fatal("send on unconnected QP did not panic")
		}
	}()
	qp.Send([]byte("x"))
}

func TestMultipleQPsIndependent(t *testing.T) {
	e := sim.NewEnv()
	sa, sb, _ := pairStacks(e, 12.5e9)
	q1a, q1b := connectedQPs(sa, sb)
	q2a, q2b := connectedQPs(sa, sb)
	var got1, got2 int
	q1b.OnRecv = func(*Message) { got1++ }
	q2b.OnRecv = func(*Message) { got2++ }
	e.Go("tx", func(p *sim.Proc) {
		p.Wait(q1a.SendSized(nil, 100))
		p.Wait(q2a.SendSized(nil, 100))
		p.Wait(q2a.SendSized(nil, 100))
	})
	e.Run(0)
	if got1 != 1 || got2 != 2 {
		t.Fatalf("got1=%d got2=%d", got1, got2)
	}
}

func TestQPIDString(t *testing.T) {
	id := QPID{Addr: "mt0", QPN: 3}
	if id.String() != "mt0/qp3" {
		t.Fatalf("QPID string = %q", id.String())
	}
}

func TestNoRecvHandlerDoesNotBlockAcks(t *testing.T) {
	e := sim.NewEnv()
	sa, sb, _ := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	_ = qb // no OnRecv installed
	var res interface{}
	e.Go("tx", func(p *sim.Proc) { res = p.Wait(qa.SendSized(nil, 128)) })
	e.Run(0)
	if res != nil {
		t.Fatalf("ack missing without recv handler: %v", res)
	}
}
