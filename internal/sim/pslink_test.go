package sim

import (
	"testing"
	"testing/quick"
)

func TestPSLinkSingleTransfer(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100, 0) // 100 B/s
	var done Time
	e.Go("p", func(p *Proc) {
		l.Transfer(p, 200)
		done = p.Now()
	})
	e.Run(0)
	if !almostEq(done, 2.0, 1e-9) {
		t.Fatalf("single transfer finished at %g, want 2.0", done)
	}
}

func TestPSLinkFairSharing(t *testing.T) {
	// Two equal transfers starting together each get half the rate.
	e := NewEnv()
	l := e.NewPSLink("l", 100, 0)
	var t1, t2 Time
	e.Go("a", func(p *Proc) { l.Transfer(p, 100); t1 = p.Now() })
	e.Go("b", func(p *Proc) { l.Transfer(p, 100); t2 = p.Now() })
	e.Run(0)
	if !almostEq(t1, 2.0, 1e-9) || !almostEq(t2, 2.0, 1e-9) {
		t.Fatalf("shared transfers finished at %g, %g; want 2.0 both", t1, t2)
	}
}

func TestPSLinkLateArrivalSlowsFirst(t *testing.T) {
	// A 100B job alone for 0.5s does 50B; then shares -> remaining 50B at
	// 50B/s takes 1s more => finishes at 1.5. Second job: 100B at 50B/s
	// until first leaves (50B by t=1.5), then full rate: +0.5s => 2.0.
	e := NewEnv()
	l := e.NewPSLink("l", 100, 0)
	var t1, t2 Time
	e.Go("a", func(p *Proc) { l.Transfer(p, 100); t1 = p.Now() })
	e.Go("b", func(p *Proc) {
		p.Sleep(0.5)
		l.Transfer(p, 100)
		t2 = p.Now()
	})
	e.Run(0)
	if !almostEq(t1, 1.5, 1e-9) {
		t.Fatalf("first transfer finished at %g, want 1.5", t1)
	}
	if !almostEq(t2, 2.0, 1e-9) {
		t.Fatalf("second transfer finished at %g, want 2.0", t2)
	}
}

func TestPSLinkFlowCap(t *testing.T) {
	// Per-flow cap of 10 B/s on a 100 B/s link: a single 100 B transfer
	// takes 10 s even though the link is idle.
	e := NewEnv()
	l := e.NewPSLink("l", 100, 10)
	var done Time
	e.Go("p", func(p *Proc) { l.Transfer(p, 100); done = p.Now() })
	e.Run(0)
	if !almostEq(done, 10, 1e-9) {
		t.Fatalf("capped transfer finished at %g, want 10", done)
	}
}

func TestPSLinkFlowCapWaterFilling(t *testing.T) {
	// Water-filling regression: 100 B/s link, per-flow cap 70. A heavy
	// flow (weight 9, fair share 90) is capped at 70; the light flow
	// (weight 1, fair share 10) must inherit the residual: 30 B/s, not
	// its naive 10 B/s share. Sized 70 B and 30 B, both finish at t=1.
	e := NewEnv()
	l := e.NewPSLink("l", 100, 70)
	var tHeavy, tLight Time
	e.Go("heavy", func(p *Proc) { p.Wait(l.StartWeighted(70, 9)); tHeavy = p.Now() })
	e.Go("light", func(p *Proc) { p.Wait(l.StartWeighted(30, 1)); tLight = p.Now() })
	e.Run(0)
	if !almostEq(tHeavy, 1.0, 1e-9) {
		t.Fatalf("capped flow finished at %g, want 1.0 (70 B/s)", tHeavy)
	}
	if !almostEq(tLight, 1.0, 1e-9) {
		t.Fatalf("uncapped flow finished at %g, want 1.0 (30 B/s after redistribution)", tLight)
	}
	st := l.Snapshot()
	if !almostEq(st.Work, 100, 1e-6) {
		t.Fatalf("total work %g, want 100 (conservation)", st.Work)
	}
	if !almostEq(st.BusyTime, 1.0, 1e-9) {
		t.Fatalf("busy time %g, want 1.0", st.BusyTime)
	}
}

func TestPSLinkWaterFillingCascade(t *testing.T) {
	// Iterative refill: weights 6/3/1 on a 100 B/s link with cap 40.
	// Fair shares 60/30/10 -> A pinned at 40; residual 60 re-shared 3:1
	// gives B 45 -> B pinned at 40 too; C gets the final 20. Sizes are
	// proportional (40/40/20) so every flow completes exactly at t=1.
	e := NewEnv()
	l := e.NewPSLink("l", 100, 40)
	var ta, tb, tc Time
	e.Go("a", func(p *Proc) { p.Wait(l.StartWeighted(40, 6)); ta = p.Now() })
	e.Go("b", func(p *Proc) { p.Wait(l.StartWeighted(40, 3)); tb = p.Now() })
	e.Go("c", func(p *Proc) { p.Wait(l.StartWeighted(20, 1)); tc = p.Now() })
	e.Run(0)
	for i, got := range []Time{ta, tb, tc} {
		if !almostEq(got, 1.0, 1e-9) {
			t.Fatalf("flow %d finished at %g, want 1.0 (rates 40/40/20)", i, got)
		}
	}
	if st := l.Snapshot(); !almostEq(st.Work, 100, 1e-6) {
		t.Fatalf("total work %g, want 100", st.Work)
	}
}

func TestPSLinkFlowCapAllCapped(t *testing.T) {
	// When every flow's share exceeds the cap, each runs at exactly the
	// cap and the link legitimately idles the rest of its capacity.
	e := NewEnv()
	l := e.NewPSLink("l", 100, 30)
	var t1, t2 Time
	e.Go("a", func(p *Proc) { l.Transfer(p, 30); t1 = p.Now() })
	e.Go("b", func(p *Proc) { l.Transfer(p, 30); t2 = p.Now() })
	e.Run(0)
	if !almostEq(t1, 1.0, 1e-9) || !almostEq(t2, 1.0, 1e-9) {
		t.Fatalf("capped flows finished at %g, %g; want 1.0 both", t1, t2)
	}
}

func TestPSLinkWeights(t *testing.T) {
	// Weight 3 vs weight 1: rates 75 and 25 until the heavy one leaves.
	// Heavy: 150B at 75 B/s => t=2. Light: 50B by t=2, then 100B left at
	// 100 B/s => t=3.
	e := NewEnv()
	l := e.NewPSLink("l", 100, 0)
	var th, tl Time
	e.Go("heavy", func(p *Proc) { p.Wait(l.StartWeighted(150, 3)); th = p.Now() })
	e.Go("light", func(p *Proc) { p.Wait(l.StartWeighted(150, 1)); tl = p.Now() })
	e.Run(0)
	if !almostEq(th, 2.0, 1e-9) {
		t.Fatalf("heavy finished at %g, want 2.0", th)
	}
	if !almostEq(tl, 3.0, 1e-9) {
		t.Fatalf("light finished at %g, want 3.0", tl)
	}
}

func TestPSLinkZeroBytes(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100, 0)
	done := false
	e.Go("p", func(p *Proc) {
		l.Transfer(p, 0)
		done = true
	})
	e.Run(0)
	if !done || e.Now() != 0 {
		t.Fatalf("zero-byte transfer: done=%v now=%g", done, e.Now())
	}
}

func TestPSLinkWorkConservation(t *testing.T) {
	// However transfers overlap, total completion time equals total
	// bytes / rate when the link never idles.
	e := NewEnv()
	l := e.NewPSLink("l", 1000, 0)
	const n = 20
	total := 0.0
	var last Time
	for i := 0; i < n; i++ {
		b := float64(100 + 37*i)
		total += b
		e.Go("p", func(p *Proc) {
			l.Transfer(p, b)
			last = p.Now()
		})
	}
	e.Run(0)
	want := total / 1000
	if !almostEq(last, want, 1e-6) {
		t.Fatalf("makespan %g, want %g", last, want)
	}
	st := l.Snapshot()
	if !almostEq(st.Work, total, 1e-3) {
		t.Fatalf("work accounting %g, want %g", st.Work, total)
	}
	if !almostEq(st.BusyTime, want, 1e-6) {
		t.Fatalf("busy time %g, want %g", st.BusyTime, want)
	}
}

func TestPSLinkSnapshotBandwidth(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100, 0)
	e.Go("p", func(p *Proc) { l.Transfer(p, 1000) })
	var s0, s1 LinkStats
	e.After(1, func() { s0 = l.Snapshot() })
	e.After(3, func() { s1 = l.Snapshot() })
	e.Run(4)
	bw := BandwidthBetween(s0, s1)
	if !almostEq(bw, 100, 1e-6) {
		t.Fatalf("bandwidth over saturated window = %g, want 100", bw)
	}
}

func TestPSLinkConservationProperty(t *testing.T) {
	// Property: for any set of (start delay, size) jobs, the sum of bytes
	// reported moved equals the sum of job sizes once all complete, and
	// no job finishes before bytes/rate after its start.
	f := func(seed uint8) bool {
		e := NewEnv()
		rate := 100.0
		l := e.NewPSLink("l", rate, 0)
		n := int(seed%7) + 1
		total := 0.0
		ok := true
		for i := 0; i < n; i++ {
			delay := float64((int(seed)*7+i*13)%50) / 10
			size := float64((int(seed)*31+i*101)%400 + 1)
			total += size
			e.Go("p", func(p *Proc) {
				p.Sleep(delay)
				start := p.Now()
				l.Transfer(p, size)
				if p.Now()-start < size/rate-1e-9 {
					ok = false
				}
			})
		}
		e.Run(0)
		st := l.Snapshot()
		return ok && almostEq(st.Work, total, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPSLinkBadRatePanics(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-rate link did not panic")
		}
	}()
	e.NewPSLink("bad", 0, 0)
}

// TestPSLinkSnapshotIsPure samples a busy link between every pair of
// events and checks that no completion moves by even one ulp: a
// snapshot reads the link's progress without applying it.
func TestPSLinkSnapshotIsPure(t *testing.T) {
	for _, flowCap := range []float64{0, 30} {
		run := func(sample bool) []Time {
			e := NewEnv()
			l := e.NewPSLink("l", 100, flowCap)
			var done []Time
			for i := 0; i < 6; i++ {
				delay, size := 0.137*float64(i), 37.3+float64(i*i)*11.1
				e.Go("p", func(p *Proc) {
					p.Sleep(delay)
					p.Wait(l.StartWeighted(size, 1+float64(i%3)))
					done = append(done, p.Now())
				})
			}
			if sample {
				for k := 1; k < 100; k++ {
					e.After(0.0731*float64(k), func() { l.Snapshot() })
				}
			}
			e.Run(0)
			return done
		}
		bare, sampled := run(false), run(true)
		if len(bare) != 6 || len(sampled) != 6 {
			t.Fatalf("flowCap=%g: %d and %d completions, want 6", flowCap, len(bare), len(sampled))
		}
		for i := range bare {
			if bare[i] != sampled[i] {
				t.Fatalf("flowCap=%g: completion %d at %v sampled vs %v bare", flowCap, i, sampled[i], bare[i])
			}
		}
	}
}
