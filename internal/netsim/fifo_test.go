package netsim

import (
	"testing"
	"testing/quick"

	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
)

// TestFIFOPerPathProperty: whatever the message sizes and send times,
// messages between one (src, dst) pair are delivered in send order —
// a wire path cannot reorder, even though the fluid bandwidth model
// would otherwise let small transfers overtake large ones.
func TestFIFOPerPathProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		e := sim.NewEnv()
		fab := NewFabric(e, Config{WireLatency: 1e-6, MTU: 4096, PerPktOverhead: 0})
		a := fab.NewPort("a", 1e9)
		b := fab.NewPort("b", 1e9)
		var got []int
		b.SetHandler(func(m *Message) { got = append(got, m.Payload.(int)) })

		const n = 30
		e.Go("tx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				// Wildly varying sizes force PS completion inversions.
				size := float64(64 + r.Intn(1<<20))
				a.Send(&Message{Dst: "b", WireBytes: size, Payload: i}, nil)
				if r.Float64() < 0.5 {
					p.Sleep(r.Exp(50e-6))
				}
			}
		})
		e.Run(0)
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOIndependentPaths: ordering is per path — messages to
// different destinations may interleave freely, and a slow path must
// not block a fast one.
func TestFIFOIndependentPaths(t *testing.T) {
	e := sim.NewEnv()
	fab := NewFabric(e, Config{WireLatency: 1e-9, MTU: 4096, PerPktOverhead: 0})
	a := fab.NewPort("a", 1e9)
	slow := fab.NewPort("slow", 1e6) // 1000x slower receiver
	fast := fab.NewPort("fast", 1e9)
	var fastAt sim.Time
	fast.SetHandler(func(*Message) { fastAt = e.Now() })
	slow.SetHandler(func(*Message) {})

	e.Go("tx", func(p *sim.Proc) {
		a.Send(&Message{Dst: "slow", WireBytes: 1e6}, nil) // ~1s on the slow port
		a.Send(&Message{Dst: "fast", WireBytes: 1e6}, nil) // ~2ms shared on a.tx
	})
	e.Run(0)
	if fastAt == 0 || fastAt > 0.1 {
		t.Fatalf("fast path blocked behind slow path: delivered at %g", fastAt)
	}
}

// TestLossDoesNotStallFIFO: a dropped message must not wedge the
// resequencer for later messages on the same path.
func TestLossDoesNotStallFIFO(t *testing.T) {
	e := sim.NewEnv()
	fab := NewFabric(e, Config{WireLatency: 1e-6, MTU: 4096, PerPktOverhead: 0})
	a := fab.NewPort("a", 1e9)
	b := fab.NewPort("b", 1e9)
	var got []int
	b.SetHandler(func(m *Message) { got = append(got, m.Payload.(int)) })
	drop := true
	fab.SetLossFn(func(m *Message) bool {
		if m.Payload.(int) == 0 && drop {
			drop = false
			return true
		}
		return false
	})
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			a.Send(&Message{Dst: "b", WireBytes: 100, Payload: i}, nil)
		}
	})
	e.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("loss stalled the path: got %v", got)
	}
}
