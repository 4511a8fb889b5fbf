package mem

import (
	"math"
	"testing"

	"github.com/disagg/smartds/internal/sim"
)

func TestDefaults(t *testing.T) {
	e := sim.NewEnv()
	s := New(e, Config{DDIOEnabled: true})
	cfg := s.Config()
	if cfg.BusBytesPerSec != 120e9 || cfg.TotalWays != 11 || cfg.DDIOWays != 2 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestReadWriteTiming(t *testing.T) {
	e := sim.NewEnv()
	s := New(e, Config{BusBytesPerSec: 1e9, AccessLatency: 1e-6, DDIOEnabled: true})
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		s.Read(p, 1e6) // 1 MB at 1 GB/s = 1 ms + 1 us latency
		done = p.Now()
	})
	e.Run(0)
	want := 1e-3 + 1e-6
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("read completed at %g, want %g", done, want)
	}
}

func TestZeroByteAccessFree(t *testing.T) {
	e := sim.NewEnv()
	s := New(e, DefaultConfig())
	e.Go("p", func(p *sim.Proc) {
		s.Read(p, 0)
		s.Write(p, -5)
	})
	e.Run(0)
	if e.Now() != 0 {
		t.Fatalf("zero-byte access consumed time: %g", e.Now())
	}
}

func TestReadWriteShareBus(t *testing.T) {
	// Concurrent read and write share the single bus: each of 1 MB at
	// 1 GB/s shared => both finish at 2 ms (plus latency).
	e := sim.NewEnv()
	s := New(e, Config{BusBytesPerSec: 1e9, AccessLatency: 0.5e-9, DDIOEnabled: true})
	var tr, tw sim.Time
	e.Go("r", func(p *sim.Proc) { s.Read(p, 1e6); tr = p.Now() })
	e.Go("w", func(p *sim.Proc) { s.Write(p, 1e6); tw = p.Now() })
	e.Run(0)
	if math.Abs(tr-2e-3) > 1e-5 || math.Abs(tw-2e-3) > 1e-5 {
		t.Fatalf("shared bus times: read %g write %g, want ~2ms", tr, tw)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	e := sim.NewEnv()
	s := New(e, Config{BusBytesPerSec: 1e9, AccessLatency: 1e-9, DDIOEnabled: true})
	s0 := s.Snapshot()
	e.Go("p", func(p *sim.Proc) {
		s.Read(p, 3e6)
		s.Write(p, 1e6)
	})
	e.Run(0)
	s1 := s.Snapshot()
	r, w := RatesBetween(s0, s1)
	if r <= 0 || w <= 0 {
		t.Fatalf("rates: r=%g w=%g", r, w)
	}
	if got := s1.ReadBytes - s0.ReadBytes; got != 3e6 {
		t.Fatalf("read bytes = %g", got)
	}
	if got := s1.WriteBytes - s0.WriteBytes; got != 1e6 {
		t.Fatalf("write bytes = %g", got)
	}
	if rr, ww := RatesBetween(s1, s1); rr != 0 || ww != 0 {
		t.Fatal("zero-width window must report 0")
	}
}

func TestDDIOCapacity(t *testing.T) {
	e := sim.NewEnv()
	on := New(e, Config{DDIOEnabled: true})
	want := 16.0 * (1 << 20) * 2 / 11
	if math.Abs(on.DDIOCapacity()-want) > 1 {
		t.Fatalf("DDIO capacity = %g, want %g", on.DDIOCapacity(), want)
	}
	off := New(e, Config{DDIOEnabled: false})
	if off.DDIOCapacity() != 0 {
		t.Fatal("DDIO off must have zero capacity")
	}
}

func TestWriteEvictFraction(t *testing.T) {
	e := sim.NewEnv()
	s := New(e, Config{DDIOEnabled: true})
	cap := s.DDIOCapacity()
	if f := s.WriteEvictFraction(cap / 2); f != 0 {
		t.Fatalf("small retained WS evict = %g, want 0", f)
	}
	// The paper's 400 MB retained working set: essentially all evicted.
	if f := s.WriteEvictFraction(400e6); f < 0.99 {
		t.Fatalf("400MB retained WS evict = %g, want ~1", f)
	}
	off := New(e, Config{DDIOEnabled: false})
	if f := off.WriteEvictFraction(10); f != 1 {
		t.Fatalf("DDIO-off evict = %g, want 1", f)
	}
}

func TestRetainedWorkingSetLittlesLaw(t *testing.T) {
	// 100 Gbps * 32 ms = 400 MB (paper §3.2).
	ws := RetainedWorkingSet(12.5e9, 32e-3)
	if math.Abs(ws-400e6) > 1e3 {
		t.Fatalf("Little's law WS = %g, want 400e6", ws)
	}
}

func TestMLCSaturatesBus(t *testing.T) {
	e := sim.NewEnv()
	s := New(e, Config{BusBytesPerSec: 1e9, AccessLatency: 1e-9, DDIOEnabled: true})
	mlc := NewMLC(e, s, MLCConfig{Workers: 4, Delay: 0})
	mlc.Start()
	e.After(0.5, func() { mlc.MarkWindow() })
	var rate float64
	e.After(1.0, func() { rate = mlc.MarkWindow(); mlc.Stop() })
	e.Run(1.1)
	if math.Abs(rate-1e9) > 0.1e9 {
		t.Fatalf("saturating MLC achieved %g B/s, want ~1e9", rate)
	}
}

func TestMLCDelayThrottles(t *testing.T) {
	run := func(delay float64) float64 {
		e := sim.NewEnv()
		s := New(e, Config{BusBytesPerSec: 100e9, AccessLatency: 1e-9, DDIOEnabled: true})
		mlc := NewMLC(e, s, MLCConfig{Workers: 2, Delay: delay, Chunk: 1 << 20})
		mlc.Start()
		var rate float64
		e.After(0.05, func() { rate = mlc.MarkWindow(); mlc.Stop() })
		e.Run(0.06)
		return rate
	}
	fast := run(0)
	slow := run(1e-3)
	if slow >= fast/2 {
		t.Fatalf("delay did not throttle: fast=%g slow=%g", fast, slow)
	}
}

func TestMLCStopTerminates(t *testing.T) {
	e := sim.NewEnv()
	s := New(e, DefaultConfig())
	mlc := NewMLC(e, s, MLCConfig{Workers: 3, Delay: 1e-6})
	mlc.Start()
	e.After(0.01, func() { mlc.Stop() })
	e.Run(1)
	if e.Pending() != 0 {
		t.Fatal("MLC workers did not stop")
	}
	if mlc.moved.Total() <= 0 {
		t.Fatal("MLC moved no bytes")
	}
	// Double Start after stop is a fresh run.
	mlc.Start()
	e.After(0.01, func() { mlc.Stop() })
	e.Run(0)
}

func TestMLCInterferesWithForeground(t *testing.T) {
	// A foreground transfer under full MLC pressure takes ~(workers+1)x
	// longer than alone — the Figure 4 effect in miniature.
	measure := func(pressure bool) sim.Time {
		e := sim.NewEnv()
		s := New(e, Config{BusBytesPerSec: 1e9, AccessLatency: 1e-9, DDIOEnabled: true})
		if pressure {
			mlc := NewMLC(e, s, MLCConfig{Workers: 3, Delay: 0})
			mlc.Start()
			e.After(2.0, func() { mlc.Stop() })
		}
		var done sim.Time
		e.Go("fg", func(p *sim.Proc) {
			s.Read(p, 100e6) // 100 MB
			done = p.Now()
		})
		e.Run(3)
		return done
	}
	alone := measure(false)
	loaded := measure(true)
	if loaded < alone*2 {
		t.Fatalf("MLC pressure had too little effect: alone=%g loaded=%g", alone, loaded)
	}
}
