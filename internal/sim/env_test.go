package sim

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestRunEmptyEnv(t *testing.T) {
	e := NewEnv()
	if got := e.Run(0); got != 0 {
		t.Fatalf("Run on empty env = %g, want 0", got)
	}
	if got := e.Run(5); got != 5 {
		t.Fatalf("Run(5) should advance clock to horizon, got %g", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.After(2, func() { order = append(order, 2) })
	e.After(1, func() { order = append(order, 1) })
	e.After(3, func() { order = append(order, 3) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %g, want 3", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(1, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEnv()
	fired := false
	tm := e.After(1, func() { fired = true })
	tm.Cancel()
	e.Run(0)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	tm.Cancel() // double cancel is a no-op
}

func TestRunHorizonStopsEarly(t *testing.T) {
	e := NewEnv()
	fired := false
	e.After(10, func() { fired = true })
	e.Run(5)
	if fired {
		t.Fatal("event past horizon fired")
	}
	if e.Now() != 5 {
		t.Fatalf("time = %g, want 5", e.Now())
	}
	e.Run(0)
	if !fired {
		t.Fatal("event did not fire after resuming")
	}
	if e.Now() != 10 {
		t.Fatalf("time = %g, want 10", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.After(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0.5, func() {})
	})
	e.Run(0)
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var times []Time
	e.Go("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(1.5)
		times = append(times, p.Now())
		p.Sleep(0.5)
		times = append(times, p.Now())
	})
	e.Run(0)
	want := []Time{0, 1.5, 2.0}
	if len(times) != 3 {
		t.Fatalf("got %v", times)
	}
	for i := range want {
		if !almostEq(times[i], want[i], 1e-12) {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcNegativeSleep(t *testing.T) {
	e := NewEnv()
	done := false
	e.Go("p", func(p *Proc) {
		p.Sleep(-1)
		done = true
	})
	e.Run(0)
	if !done || e.Now() != 0 {
		t.Fatalf("negative sleep misbehaved: done=%v now=%g", done, e.Now())
	}
}

func TestInterleavedProcs(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1)
		order = append(order, "b1")
		p.Sleep(2)
		order = append(order, "b3")
	})
	e.Run(0)
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventTriggerWakesWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	got := make([]interface{}, 0, 2)
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) { got = append(got, p.Wait(ev)) })
	}
	e.After(3, func() { ev.Trigger(42) })
	e.Run(0)
	if len(got) != 2 || got[0] != 42 || got[1] != 42 {
		t.Fatalf("waiters got %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %g", e.Now())
	}
}

func TestWaitOnDoneEvent(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger("x")
	var got interface{}
	e.Go("w", func(p *Proc) { got = p.Wait(ev) })
	e.Run(0)
	if got != "x" {
		t.Fatalf("got %v", got)
	}
}

func TestDoubleTriggerPanics(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double trigger did not panic")
		}
	}()
	ev.Trigger(nil)
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var ok bool
	var at Time
	e.Go("w", func(p *Proc) {
		_, ok = p.WaitTimeout(ev, 2)
		at = p.Now()
	})
	e.Run(0)
	if ok {
		t.Fatal("timeout reported success")
	}
	if !almostEq(at, 2, 1e-12) {
		t.Fatalf("woke at %g, want 2", at)
	}
	// Late trigger must not disturb anything.
	ev.Trigger(nil)
	e.Run(0)
}

func TestWaitTimeoutCompletes(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var ok bool
	var val interface{}
	e.Go("w", func(p *Proc) { val, ok = p.WaitTimeout(ev, 5) })
	e.After(1, func() { ev.Trigger("hi") })
	e.Run(0)
	if !ok || val != "hi" {
		t.Fatalf("ok=%v val=%v", ok, val)
	}
	if e.Now() >= 5 {
		t.Fatalf("timeout timer extended the run: now=%g", e.Now())
	}
}

func TestOnTriggerAlreadyDone(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger(7)
	ran := false
	ev.OnTrigger(func(v interface{}) {
		if v != 7 {
			t.Errorf("cb value %v", v)
		}
		ran = true
	})
	if !ran {
		t.Fatal("OnTrigger on done event did not run immediately")
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("parent", func(p *Proc) {
		order = append(order, "parent")
		p.Env().Go("child", func(c *Proc) {
			order = append(order, "child")
			c.Sleep(1)
			order = append(order, "child-done")
		})
		p.Sleep(2)
		order = append(order, "parent-done")
	})
	e.Run(0)
	want := []string{"parent", "child", "child-done", "parent-done"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStepAndPending(t *testing.T) {
	e := NewEnv()
	n := 0
	e.After(1, func() { n++ })
	e.After(2, func() { n++ })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	if !e.Step() || n != 1 {
		t.Fatalf("Step did not run first event")
	}
	if !e.Step() || n != 2 {
		t.Fatalf("Step did not run second event")
	}
	if e.Step() {
		t.Fatal("Step on empty calendar returned true")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEnv()
		var out []Time
		link := e.NewPSLink("l", 100, 0)
		for i := 0; i < 5; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				p.Sleep(float64(i) * 0.1)
				link.Transfer(p, 50)
				out = append(out, p.Now())
			})
		}
		e.Run(0)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic results: %v vs %v", a, b)
		}
	}
}

func TestWaitAllMixedStates(t *testing.T) {
	e := NewEnv()
	a, b, c := e.NewEvent(), e.NewEvent(), e.NewEvent()
	a.Trigger(nil)
	var done Time
	e.Go("w", func(p *Proc) {
		p.WaitAll(a, b, c)
		done = p.Now()
	})
	e.After(1, func() { c.Trigger(nil) })
	e.After(2, func() { b.Trigger(nil) })
	e.Run(0)
	if done != 2 {
		t.Fatalf("WaitAll finished at %g, want 2", done)
	}
}

func TestResourceWaitTimeAccounting(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	e.Go("a", func(p *Proc) { hold(p, r, 2) })
	e.Go("b", func(p *Proc) { hold(p, r, 1) }) // waits 2s
	e.Run(0)
	s := r.Snapshot()
	if s.Acquires != 2 {
		t.Fatalf("acquires = %d", s.Acquires)
	}
	if s.WaitTime < 1.9 || s.WaitTime > 2.1 {
		t.Fatalf("wait time = %g, want ~2", s.WaitTime)
	}
}

func TestPSLinkInFlightGauge(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100, 0)
	e.Go("a", func(p *Proc) { l.Transfer(p, 100) })
	e.Go("b", func(p *Proc) { l.Transfer(p, 100) })
	e.After(0.5, func() {
		if l.InFlight() != 2 {
			t.Errorf("in flight = %d, want 2", l.InFlight())
		}
	})
	e.Run(0)
	if l.InFlight() != 0 {
		t.Fatalf("in flight after drain = %d", l.InFlight())
	}
}

// TestWaitTimeoutSameInstantRace pins the deadline instant: when the
// trigger and the timeout land at the same virtual time, the entry
// dispatched first decides, and the waiter reports what it sees when it
// resumes. Either way the value is never lost — the event stays done
// and a later Wait returns it without parking.
func TestWaitTimeoutSameInstantRace(t *testing.T) {
	for _, c := range []struct {
		name         string
		triggerFirst bool
		wantOK       bool
	}{
		{"trigger-scheduled-first", true, true},
		{"timer-scheduled-first", false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEnv()
			ev := e.NewEvent()
			if c.triggerFirst {
				e.At(1, func() { ev.Trigger("v") })
			}
			var ok bool
			var val, again interface{}
			var resumed, after Time
			e.Go("w", func(p *Proc) {
				val, ok = p.WaitTimeout(ev, 1)
				resumed = p.Now()
				again = p.Wait(ev)
				after = p.Now()
			})
			if !c.triggerFirst {
				// Scheduled after the waiter's timer is armed (at t=0),
				// so the timer entry precedes it at t=1.
				e.After(0.5, func() { e.At(1, func() { ev.Trigger("v") }) })
			}
			e.Run(0)
			if ok != c.wantOK {
				t.Fatalf("WaitTimeout ok = %v, want %v", ok, c.wantOK)
			}
			if ok && val != "v" {
				t.Fatalf("completed with value %v, want v", val)
			}
			if !ok && val != nil {
				t.Fatalf("timed out with value %v, want nil", val)
			}
			if resumed != 1 || after != 1 {
				t.Fatalf("resumed at %g, second wait returned at %g; want both at 1", resumed, after)
			}
			if again != "v" {
				t.Fatalf("later Wait = %v, want the triggered value", again)
			}
		})
	}
}

// TestWaitTimeoutStaleTokenIgnored checks that a trigger arriving after
// a timeout cannot wake the process out of its next, unrelated park.
func TestWaitTimeoutStaleTokenIgnored(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var woke Time
	e.Go("w", func(p *Proc) {
		if _, ok := p.WaitTimeout(ev, 1); ok {
			t.Error("WaitTimeout completed before the trigger")
		}
		p.Sleep(5)
		woke = p.Now()
	})
	e.After(2, func() { ev.Trigger(nil) })
	e.Run(0)
	if woke != 6 {
		t.Fatalf("sleep after timeout ended at %g, want 6 (the late trigger must not cut it short)", woke)
	}
}

// TestEventWaitersWakeInArrivalOrder pins FIFO wake-up: the first
// waiter lives inline, later ones in the overflow slice, and Trigger
// resumes them in the order they parked.
func TestEventWaitersWakeInArrivalOrder(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(float64(i) * 0.001)
			p.Wait(ev)
			got = append(got, i)
		})
	}
	e.After(1, func() { ev.Trigger(nil) })
	e.Run(0)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("woke %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("woke %v, want %v", got, want)
		}
	}
}

// TestWaitTimeoutKeepsOtherWaitersOrder checks that a waiter that times
// out — inline or from the overflow slice — leaves the event, and the
// remaining waiters still wake once each, in arrival order.
func TestWaitTimeoutKeepsOtherWaitersOrder(t *testing.T) {
	for _, quitter := range []int{0, 1, 2} {
		e := NewEnv()
		ev := e.NewEvent()
		var got []int
		timedOut := -1
		for i := 0; i < 3; i++ {
			i := i
			e.Go("w", func(p *Proc) {
				p.Sleep(float64(i) * 0.001)
				if i == quitter {
					if _, ok := p.WaitTimeout(ev, 0.5); !ok {
						timedOut = i
					}
					return
				}
				p.Wait(ev)
				got = append(got, i)
			})
		}
		e.After(1, func() { ev.Trigger(nil) })
		e.Run(0)
		if timedOut != quitter {
			t.Fatalf("quitter %d: timed out %d", quitter, timedOut)
		}
		var want []int
		for i := 0; i < 3; i++ {
			if i != quitter {
				want = append(want, i)
			}
		}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("quitter %d: woke %v, want %v", quitter, got, want)
		}
	}
}

// TestOnTriggerCallbacksInOrder checks that callbacks run once each, in
// registration order, with the trigger value, and that Trigger clears
// them so the event holds no references afterwards.
func TestOnTriggerCallbacksInOrder(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var got []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		ev.OnTrigger(func(v interface{}) { got = append(got, name+v.(string)) })
	}
	ev.Trigger("!")
	if len(got) != 3 || got[0] != "a!" || got[1] != "b!" || got[2] != "c!" {
		t.Fatalf("callbacks ran %v, want [a! b! c!]", got)
	}
	if ev.ncb != 0 || ev.cb0 != nil || ev.cbs != nil {
		t.Fatal("Trigger left callbacks registered")
	}
}

// TestInitEventBehavesLikeNewEvent checks that a zero Event readied by
// InitEvent parks, wakes and reports its value exactly like one from
// NewEvent.
func TestInitEventBehavesLikeNewEvent(t *testing.T) {
	e := NewEnv()
	var rec struct {
		id   int
		done Event
	}
	e.InitEvent(&rec.done)
	if rec.done.Done() || rec.done.Value() != nil {
		t.Fatal("fresh event is already done")
	}
	var got interface{}
	var at Time
	e.Go("w", func(p *Proc) { got = p.Wait(&rec.done); at = p.Now() })
	e.After(2, func() { rec.done.Trigger(9) })
	e.Run(0)
	if got != 9 || at != 2 || !rec.done.Done() || rec.done.Value() != 9 {
		t.Fatalf("InitEvent event: got %v at %g, done=%v", got, at, rec.done.Done())
	}
}

// TestNewEventAcrossSlabBoundary checks that events carved from
// consecutive slab chunks are distinct: triggering one never completes
// another, and the slab never hands out the same storage twice.
func TestNewEventAcrossSlabBoundary(t *testing.T) {
	e := NewEnv()
	evs := make([]*Event, 2*eventSlab+3)
	seen := make(map[*Event]bool, len(evs))
	for i := range evs {
		evs[i] = e.NewEvent()
		if seen[evs[i]] {
			t.Fatalf("event %d reuses storage", i)
		}
		seen[evs[i]] = true
	}
	for i := 0; i < len(evs); i += 2 {
		evs[i].Trigger(i)
	}
	for i, ev := range evs {
		if want := i%2 == 0; ev.Done() != want {
			t.Fatalf("event %d done = %v, want %v", i, ev.Done(), want)
		}
		if ev.Done() && ev.Value() != i {
			t.Fatalf("event %d value = %v", i, ev.Value())
		}
	}
}

// TestYieldLetsSameInstantWorkRun checks that Yield parks for zero time
// behind work already scheduled at the current instant.
func TestYieldLetsSameInstantWorkRun(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) { order = append(order, "b") })
	e.Run(0)
	if len(order) != 3 || order[0] != "a1" || order[1] != "b" || order[2] != "a2" {
		t.Fatalf("order = %v, want [a1 b a2]", order)
	}
	if e.Now() != 0 {
		t.Fatalf("Yield advanced the clock to %g", e.Now())
	}
}
