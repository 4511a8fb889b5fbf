package netsim

import (
	"math"
	"testing"

	"github.com/disagg/smartds/internal/sim"
)

func newPair(e *sim.Env, rate float64) (*Fabric, *Port, *Port) {
	f := NewFabric(e, Config{WireLatency: 1e-6, MTU: 4096, PerPktOverhead: 0})
	a := f.NewPort("a", rate)
	b := f.NewPort("b", rate)
	return f, a, b
}

// sendWait sends m out of port and parks p until its TX serialization
// completes.
func sendWait(p *sim.Proc, port *Port, m *Message) {
	sent := p.Env().NewEvent()
	port.Send(m, func() { sent.Trigger(nil) })
	p.Wait(sent)
}

func TestBasicDelivery(t *testing.T) {
	e := sim.NewEnv()
	_, a, b := newPair(e, 1e9)
	var gotAt sim.Time
	var got *Message
	b.SetHandler(func(m *Message) { got = m; gotAt = e.Now() })
	e.Go("tx", func(p *sim.Proc) {
		sendWait(p, a, &Message{Dst: "b", WireBytes: 1e6, Payload: "hello"})
	})
	e.Run(0)
	if got == nil || got.Payload != "hello" || got.Src != "a" {
		t.Fatalf("delivery failed: %+v", got)
	}
	// 1 MB at 1 GB/s = 1 ms serialization + 1 us wire.
	want := 1e-3 + 1e-6
	if math.Abs(gotAt-want) > 1e-8 {
		t.Fatalf("delivered at %g, want %g", gotAt, want)
	}
}

func TestSendEventFiresAtTxComplete(t *testing.T) {
	e := sim.NewEnv()
	_, a, _ := newPair(e, 1e9)
	var sentAt sim.Time
	e.Go("tx", func(p *sim.Proc) {
		sendWait(p, a, &Message{Dst: "b", WireBytes: 1e6})
		sentAt = p.Now()
	})
	e.Run(0)
	if math.Abs(sentAt-1e-3) > 1e-8 {
		t.Fatalf("TX completed at %g, want 1ms", sentAt)
	}
}

func TestUnknownDestinationVanishes(t *testing.T) {
	e := sim.NewEnv()
	_, a, _ := newPair(e, 1e9)
	done := false
	e.Go("tx", func(p *sim.Proc) {
		sendWait(p, a, &Message{Dst: "nowhere", WireBytes: 100})
		done = true
	})
	e.Run(0)
	if !done {
		t.Fatal("send to unknown destination blocked forever")
	}
}

func TestNoHandlerDrops(t *testing.T) {
	e := sim.NewEnv()
	_, a, _ := newPair(e, 1e9)
	e.Go("tx", func(p *sim.Proc) {
		sendWait(p, a, &Message{Dst: "b", WireBytes: 100})
	})
	e.Run(0) // must not panic
}

func TestLossInjection(t *testing.T) {
	e := sim.NewEnv()
	f, a, b := newPair(e, 1e9)
	delivered := 0
	b.SetHandler(func(*Message) { delivered++ })
	n := 0
	f.SetLossFn(func(*Message) bool {
		n++
		return n%2 == 1 // drop every other message
	})
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			sendWait(p, a, &Message{Dst: "b", WireBytes: 100})
		}
	})
	e.Run(0)
	if delivered != 5 {
		t.Fatalf("delivered %d, want 5", delivered)
	}
	f.SetLossFn(nil)
}

func TestReceiverSharingSlowsDelivery(t *testing.T) {
	// Two senders into one receiver: RX is the bottleneck, so both
	// complete at ~2x single-flow time (incast).
	e := sim.NewEnv()
	f := NewFabric(e, Config{WireLatency: 1e-9, MTU: 4096, PerPktOverhead: 0})
	a := f.NewPort("a", 1e9)
	b := f.NewPort("b", 1e9)
	c := f.NewPort("c", 1e9)
	arrived := []sim.Time{}
	c.SetHandler(func(*Message) { arrived = append(arrived, e.Now()) })
	for _, p := range []*Port{a, b} {
		p := p
		e.Go("tx", func(proc *sim.Proc) {
			sendWait(proc, p, &Message{Dst: "c", WireBytes: 1e6})
		})
	}
	e.Run(0)
	if len(arrived) != 2 {
		t.Fatalf("arrived %d messages", len(arrived))
	}
	for _, at := range arrived {
		if at < 1.9e-3 {
			t.Fatalf("incast delivery too fast: %g (RX not shared?)", at)
		}
	}
}

func TestWireSize(t *testing.T) {
	e := sim.NewEnv()
	f := NewFabric(e, Config{WireLatency: 1e-6, MTU: 1000, PerPktOverhead: 50})
	cases := []struct{ in, want float64 }{
		{0, 50},      // minimum one packet
		{1, 51},      // 1 byte, 1 packet
		{1000, 1050}, // exactly one MTU
		{1001, 1101}, // two packets
		{4096, 4096 + 5*50},
	}
	for _, c := range cases {
		if got := f.WireSize(c.in); got != c.want {
			t.Errorf("WireSize(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	if f.WireSize(-5) != 50 {
		t.Error("negative payload should clamp to empty packet")
	}
}

func TestDuplicateAddrPanics(t *testing.T) {
	e := sim.NewEnv()
	f := NewFabric(e, DefaultConfig())
	f.NewPort("x", 1e9)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate address did not panic")
		}
	}()
	f.NewPort("x", 1e9)
}

func TestPortStats(t *testing.T) {
	e := sim.NewEnv()
	_, a, b := newPair(e, 1e9)
	b.SetHandler(func(*Message) {})
	e.Go("tx", func(p *sim.Proc) {
		sendWait(p, a, &Message{Dst: "b", WireBytes: 5000})
	})
	e.Run(0)
	if got := a.TxStats().Work; got != 5000 {
		t.Fatalf("tx work = %g", got)
	}
	if got := b.RxStats().Work; got != 5000 {
		t.Fatalf("rx work = %g", got)
	}
	if a.Rate() != 1e9 {
		t.Fatalf("rate = %g", a.Rate())
	}
}

func TestDefaultsApplied(t *testing.T) {
	e := sim.NewEnv()
	f := NewFabric(e, Config{})
	cfg := f.Config()
	if cfg.WireLatency != 1e-6 || cfg.MTU != 4096 || cfg.PerPktOverhead != 0 {
		// PerPktOverhead 0 is respected (not defaulted) only when
		// explicitly negative values are not given; zero means zero.
		t.Logf("cfg = %+v", cfg)
	}
	if cfg.MTU != 4096 {
		t.Fatalf("MTU default = %g", cfg.MTU)
	}
}

func TestManyToManyThroughput(t *testing.T) {
	// 4 senders to 4 distinct receivers: all transfer at full rate.
	e := sim.NewEnv()
	f := NewFabric(e, Config{WireLatency: 1e-9, MTU: 4096, PerPktOverhead: 0})
	var finish []sim.Time
	for i := 0; i < 4; i++ {
		src := f.NewPort(Addr(string(rune('s'+i))), 1e9)
		dst := f.NewPort(Addr(string(rune('d'+i))), 1e9)
		dst.SetHandler(func(*Message) { finish = append(finish, e.Now()) })
		dstAddr := dst.Addr()
		e.Go("tx", func(p *sim.Proc) {
			sendWait(p, src, &Message{Dst: dstAddr, WireBytes: 1e6})
		})
	}
	e.Run(0)
	if len(finish) != 4 {
		t.Fatalf("deliveries: %d", len(finish))
	}
	for _, at := range finish {
		if at > 1.1e-3 {
			t.Fatalf("parallel flows interfered: %g", at)
		}
	}
}
