package sim

import "testing"

// BenchmarkEnvRun measures raw calendar throughput: a self-
// rescheduling timer chain (the dominant event shape in the cluster —
// PSLink reschedules, sampler grids, retransmit timers) plus a
// cancelled timer per step, which exercises the in-place heap removal.
func BenchmarkEnvRun(b *testing.B) {
	env := NewEnv()
	fn := func() {}
	n := 0
	var tick func()
	tick = func() {
		n++
		dead := env.After(2e-6, fn) // armed and cancelled, like a timeout that never fires
		dead.Cancel()
		if n < b.N {
			env.After(1e-6, tick)
		}
	}
	env.After(1e-6, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(0)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEnvSleepWakeup measures the proc park/resume path: a
// consumer parks on an InitEvent-readied Event and a producer triggers
// it, the handoff the middle tier's fan-outs use, each handoff crossing
// the scheduler twice.
func BenchmarkEnvSleepWakeup(b *testing.B) {
	env := NewEnv()
	var slab []Event
	var cur *Event
	got := 0
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if len(slab) == 0 {
				slab = make([]Event, eventSlab)
			}
			cur, slab = &slab[0], slab[1:]
			env.InitEvent(cur)
			p.Wait(cur)
			got++
		}
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			cur.Trigger(nil)
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(0)
	if got != b.N {
		b.Fatalf("consumer finished %d handoffs, want %d", got, b.N)
	}
}

// BenchmarkTimerCancel measures the schedule/cancel churn path — the
// shape of every timeout that does not fire.
func BenchmarkTimerCancel(b *testing.B) {
	env := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := env.After(1, fn)
		tm.Cancel()
	}
}

// BenchmarkPSLinkChurn measures the processor-sharing link under a
// sustained open-loop load of overlapping transfers.
func BenchmarkPSLinkChurn(b *testing.B) {
	env := NewEnv()
	l := env.NewPSLink("bench", 100e9)
	n := 0
	var launch func()
	launch = func() {
		n++
		l.Start(4096)
		if n < b.N {
			env.After(50e-9, launch)
		}
	}
	env.After(50e-9, launch)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(0)
}
