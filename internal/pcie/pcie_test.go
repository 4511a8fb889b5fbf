package pcie

import (
	"math"
	"testing"

	"github.com/disagg/smartds/internal/sim"
)

func TestUnloadedLatencyMatchesTable1(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	if got := l.Latency(H2D); math.Abs(got-1.4e-6) > 1e-12 {
		t.Fatalf("idle H2D latency = %g, want 1.4us", got)
	}
	if got := l.Latency(D2H); math.Abs(got-1.4e-6) > 1e-12 {
		t.Fatalf("idle D2H latency = %g, want 1.4us", got)
	}
}

func TestLoadedLatencyMatchesTable1(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	// Saturate both directions with large outstanding DMA.
	l.StartDMA(H2D, 8<<20)
	l.StartDMA(D2H, 8<<20)
	if got := l.Latency(H2D); math.Abs(got-11.3e-6) > 1e-12 {
		t.Fatalf("loaded H2D latency = %g, want 11.3us", got)
	}
	if got := l.Latency(D2H); math.Abs(got-6.6e-6) > 1e-12 {
		t.Fatalf("loaded D2H latency = %g, want 6.6us", got)
	}
}

func TestDMATransferTime(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", Config{BytesPerSec: 1e9, BaseLatency: 1e-6})
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		l.DMARead(p, 1e6) // 1 MB at 1 GB/s = 1 ms + ~latency
		done = p.Now()
	})
	e.Run(0)
	if done < 1e-3 || done > 1.1e-3 {
		t.Fatalf("DMA read took %g, want ~1ms", done)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	// Full duplex: simultaneous H2D and D2H at full rate each.
	e := sim.NewEnv()
	l := New(e, "nic", Config{BytesPerSec: 1e9, BaseLatency: 1e-9})
	var tr, tw sim.Time
	e.Go("r", func(p *sim.Proc) { l.DMARead(p, 1e6); tr = p.Now() })
	e.Go("w", func(p *sim.Proc) { l.DMAWrite(p, 1e6); tw = p.Now() })
	e.Run(0)
	if tr > 1.2e-3 || tw > 1.2e-3 {
		t.Fatalf("duplex transfers serialized: read %g write %g", tr, tw)
	}
}

func TestSameDirectionShares(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", Config{BytesPerSec: 1e9, BaseLatency: 1e-9})
	var t1, t2 sim.Time
	e.Go("a", func(p *sim.Proc) { l.DMARead(p, 1e6); t1 = p.Now() })
	e.Go("b", func(p *sim.Proc) { l.DMARead(p, 1e6); t2 = p.Now() })
	e.Run(0)
	if t1 < 1.9e-3 || t2 < 1.9e-3 {
		t.Fatalf("same-direction transfers did not share: %g %g", t1, t2)
	}
}

func TestAccountingAndRates(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", Config{BytesPerSec: 1e9, BaseLatency: 1e-9})
	s0 := l.Snapshot()
	e.Go("p", func(p *sim.Proc) {
		l.DMARead(p, 2e6)
		l.DMAWrite(p, 1e6)
	})
	e.Run(0)
	s1 := l.Snapshot()
	if s1.H2DBytes-s0.H2DBytes != 2e6 || s1.D2HBytes-s0.D2HBytes != 1e6 {
		t.Fatalf("byte accounting wrong: %+v", s1)
	}
	h, d := RatesBetween(s0, s1)
	if h <= 0 || d <= 0 {
		t.Fatalf("rates: %g %g", h, d)
	}
	if h2, d2 := RatesBetween(s1, s1); h2 != 0 || d2 != 0 {
		t.Fatal("zero window rates must be 0")
	}
}

func TestOutstandingDrains(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	e.Go("p", func(p *sim.Proc) { l.DMARead(p, 1e6) })
	e.Run(0)
	if got := l.Latency(H2D); math.Abs(got-1.4e-6) > 1e-12 {
		t.Fatalf("latency did not return to idle after drain: %g", got)
	}
}

func TestDoorbellCheap(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	var done sim.Time
	e.Go("p", func(p *sim.Proc) { l.Doorbell(p); done = p.Now() })
	e.Run(0)
	if done <= 0 || done > 1.4e-6 {
		t.Fatalf("doorbell latency %g out of range", done)
	}
}

func TestZeroAndNegativeBytes(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	var done bool
	e.Go("p", func(p *sim.Proc) {
		l.DMAWrite(p, 0)
		l.DMARead(p, -3)
		done = true
	})
	e.Run(0)
	if !done {
		t.Fatal("degenerate DMA sizes blocked")
	}
}

func TestDirectionString(t *testing.T) {
	if H2D.String() != "H2D" || D2H.String() != "D2H" {
		t.Fatal("direction names wrong")
	}
}

func TestLatencyInterpolationMonotone(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	prev := l.Latency(H2D)
	for _, n := range []float64{16 << 10, 64 << 10, 128 << 10, 256 << 10} {
		l.outstanding[H2D] = n
		cur := l.Latency(H2D)
		if cur < prev {
			t.Fatalf("latency not monotone in load: %g < %g at %g bytes", cur, prev, n)
		}
		prev = cur
	}
}

// TestStartDMAZeroAllocs pins the steady-state DMA path: issuing a DMA
// and running it to completion draws a pooled op and a slab event and
// allocates nothing else.
func TestStartDMAZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	round := func() {
		l.StartDMA(H2D, 4096)
		l.StartDMA(D2H, 64)
		e.Run(0)
	}
	for i := 0; i < 1024; i++ { // warm the op pool, the event slab and the calendar
		round()
	}
	if got := testing.AllocsPerRun(1000, round); got != 0 {
		t.Fatalf("StartDMA round = %g allocs, want 0", got)
	}
}

// TestStartDMAPoolsOps checks op reuse cannot cross completions: many
// overlapping DMAs each fire their own event exactly once, at an
// instant no earlier than their issue latency.
func TestStartDMAPoolsOps(t *testing.T) {
	e := sim.NewEnv()
	l := New(e, "nic", Config{BytesPerSec: 1e9, BaseLatency: 1e-6})
	const n = 64
	var fired [n]int
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			i := i
			issued := e.Now()
			dir := Direction(i % 2)
			lat := l.Latency(dir)
			ev := l.StartDMA(dir, float64(64*(i+1)))
			ev.OnTrigger(func(interface{}) {
				fired[i]++
				if e.Now() < issued+lat {
					t.Errorf("DMA %d fired at %g, before issue %g + latency %g", i, e.Now(), issued, lat)
				}
			})
		}
		e.Run(0)
		for i, c := range fired {
			if c != round+1 {
				t.Fatalf("round %d: DMA %d fired %d times", round, i, c)
			}
		}
	}
	if l.outstanding != [2]float64{} {
		t.Fatalf("outstanding bytes after drain = %v, want zero", l.outstanding)
	}
}

func BenchmarkStartDMA(b *testing.B) {
	e := sim.NewEnv()
	l := New(e, "nic", DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.StartDMA(D2H, 64)
		e.Run(0)
	}
}
