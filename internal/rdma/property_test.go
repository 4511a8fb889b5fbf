package rdma

import (
	"testing"
	"testing/quick"

	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
)

// TestPropertyLossyDeliveryInOrder: under any random loss pattern (below
// the retry budget), every message is eventually delivered exactly once
// and in order.
func TestPropertyLossyDeliveryInOrder(t *testing.T) {
	// Regression: at 59% loss this input once pushed a late message past
	// its retry budget, when every earlier message's timeout was charged
	// to it too.
	if !lossyDeliveryInOrder(0x95cf, 0x3b) {
		t.Fatal("seed 0x95cf at 59% loss: not every message was delivered in order")
	}
	if err := quick.Check(lossyDeliveryInOrder, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// lossyDeliveryInOrder sends 25 messages over a fabric dropping data
// and acks alike at lossPct%60 percent and reports whether all of them
// were delivered, in order, without a send failing.
func lossyDeliveryInOrder(seed uint16, lossPct uint8) bool {
	lossP := float64(lossPct%60) / 100 // 0..59% loss
	r := rng.New(uint64(seed))

	e := sim.NewEnv()
	fab := netsim.NewFabric(e, netsim.Config{WireLatency: 1e-6, MTU: 4096, PerPktOverhead: 80})
	sa := NewStack(e, fab.NewPort("A", 12.5e9), Config{RetransmitTimeout: 50e-6, MaxRetries: 64})
	sb := NewStack(e, fab.NewPort("B", 12.5e9), Config{RetransmitTimeout: 50e-6, MaxRetries: 64})
	qa, qb := sa.CreateQP(), sb.CreateQP()
	Connect(qa, qb)

	fab.SetLossFn(func(m *netsim.Message) bool {
		// Drop data and acks alike.
		return r.Float64() < lossP
	})

	const n = 25
	var got []uint64
	qb.OnRecv = func(m *Message) { got = append(got, m.Seq) }
	failed := 0
	e.Go("tx", func(p *sim.Proc) {
		evs := make([]*sim.Event, 0, n)
		for i := 0; i < n; i++ {
			evs = append(evs, qa.SendSized(nil, float64(256+i*100)))
		}
		for _, ev := range evs {
			if v := p.Wait(ev); v != nil {
				failed++
			}
		}
	})
	e.Run(0)
	if failed > 0 {
		return false // 64 retries at <60% loss should always succeed
	}
	if len(got) != n {
		return false
	}
	for i, s := range got {
		if s != uint64(i) {
			return false
		}
	}
	return true
}

// TestPropertyNoDuplicateDelivery: retransmissions never deliver a
// message twice, even when acks are lost (forcing spurious resends).
func TestPropertyNoDuplicateDelivery(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 7)
		e := sim.NewEnv()
		fab := netsim.NewFabric(e, netsim.DefaultConfig())
		sa := NewStack(e, fab.NewPort("A", 12.5e9), Config{RetransmitTimeout: 30e-6, MaxRetries: 64})
		sb := NewStack(e, fab.NewPort("B", 12.5e9), Config{RetransmitTimeout: 30e-6, MaxRetries: 64})
		qa, qb := sa.CreateQP(), sb.CreateQP()
		Connect(qa, qb)

		// Drop only ACKs, often: data always arrives, acks get lost, so
		// the sender resends data the receiver has already seen.
		fab.SetLossFn(func(m *netsim.Message) bool {
			pkt, ok := packetOf(m)
			return ok && pkt.kind == 'A' && r.Float64() < 0.5
		})

		counts := map[uint64]int{}
		qb.OnRecv = func(m *Message) { counts[m.Seq]++ }
		e.Go("tx", func(p *sim.Proc) {
			for i := 0; i < 15; i++ {
				p.Wait(qa.SendSized(nil, 1024))
			}
		})
		e.Run(0)
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return len(counts) == 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
