package sim

import (
	"math"
	"testing"
)

// TestTimerCancelBoundedCalendar pins the slow-leak fix: a cancelled
// heap entry is removed in place, so a schedule/cancel churn loop —
// the shape every WaitTimeout and retransmission timer produces — keeps
// the calendar flat instead of accumulating a million dead entries
// that only a pop could reclaim.
func TestTimerCancelBoundedCalendar(t *testing.T) {
	env := NewEnv()
	const n = 1_000_000
	for i := 0; i < n; i++ {
		tm := env.After(float64(i%1000)+1, func() {})
		tm.Cancel()
		if l := env.calendarLen(); l > 8 {
			t.Fatalf("iteration %d: calendar holds %d entries after cancel", i, l)
		}
	}
	if got := env.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after cancelling everything", got)
	}
	if got := env.calendarLen(); got != 0 {
		t.Fatalf("calendarLen() = %d after cancelling everything", got)
	}
}

// TestTimerCancelBatch cancels a large scheduled batch out of order and
// checks the heap shrinks with every removal.
func TestTimerCancelBatch(t *testing.T) {
	env := NewEnv()
	const n = 100_000
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, env.After(float64(n-i), func() {}))
	}
	// Cancel in a scrambled order (reverse of odd, then evens).
	for i := n - 1; i >= 0; i -= 2 {
		timers[i].Cancel()
	}
	for i := 0; i < n; i += 2 {
		timers[i].Cancel()
	}
	if got := env.calendarLen(); got != 0 {
		t.Fatalf("calendarLen() = %d after cancelling all %d timers", got, n)
	}
	if end := env.Run(0); end != 0 {
		t.Fatalf("cancelled-everything run ended at %g, want 0", end)
	}
}

// TestTimerCancelAfterFire checks the value-Timer contract: cancelling
// after the callback ran is a no-op, and — because pooled items carry a
// seq stamp — a stale handle can never cancel the entry its item was
// recycled into.
func TestTimerCancelAfterFire(t *testing.T) {
	env := NewEnv()
	fired := 0
	tm := env.After(1, func() { fired++ })
	env.Run(0)
	if fired != 1 {
		t.Fatalf("first timer fired %d times", fired)
	}
	tm.Cancel() // after fire: no-op

	// The released item is now in the pool; the next schedule reuses it.
	reused := false
	env.After(1, func() { reused = true })
	tm.Cancel() // stale handle aimed at a recycled item: must not cancel
	env.Run(0)
	if !reused {
		t.Fatal("stale Timer.Cancel killed a recycled calendar entry")
	}

	var zero Timer
	zero.Cancel() // zero Timer: no-op
}

// TestScheduleNaNPanics pins the NaN guard: NaN compares false against
// everything, so letting one into the heap would silently corrupt the
// dispatch order instead of failing loudly.
func TestScheduleNaNPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	env.After(math.NaN(), func() {})
}

// TestRunHorizonReentry drives Run(until) past a scheduled event in
// three steps: stop short (the event is pushed back, the clock parks at
// the horizon), re-enter with an earlier horizon (the clock must not
// move backward), then run through (the event fires at its own time).
func TestRunHorizonReentry(t *testing.T) {
	env := NewEnv()
	var firedAt Time = -1
	env.At(5, func() { firedAt = env.Now() })

	if end := env.Run(2); !almostEq(end, 2, 0) {
		t.Fatalf("Run(2) ended at %g", end)
	}
	if firedAt >= 0 {
		t.Fatal("event fired before its time")
	}
	if env.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the pushed-back event", env.Pending())
	}
	if end := env.Run(1); !almostEq(end, 2, 0) {
		t.Fatalf("Run(1) after now=2 moved the clock to %g", end)
	}
	if end := env.Run(10); !almostEq(end, 10, 0) {
		t.Fatalf("Run(10) ended at %g", end)
	}
	if !almostEq(firedAt, 5, 0) {
		t.Fatalf("event fired at %g, want 5", firedAt)
	}
}

// TestGoFromSchedulerCallback spawns a process from a timer callback
// (scheduler context) rather than from another process, and lets it
// sleep — the same shape cluster fault injectors use.
func TestGoFromSchedulerCallback(t *testing.T) {
	env := NewEnv()
	var wokeAt Time = -1
	env.After(1, func() {
		env.Go("spawned", func(p *Proc) {
			p.Sleep(2)
			wokeAt = p.Now()
		})
	})
	env.Run(0)
	if !almostEq(wokeAt, 3, 0) {
		t.Fatalf("spawned proc woke at %g, want 3", wokeAt)
	}
}

// TestEventsCounter checks Events() counts dispatched entries only:
// cancelled timers never count, wakes and callbacks both do.
func TestEventsCounter(t *testing.T) {
	env := NewEnv()
	env.After(1, func() {})
	env.After(2, func() {})
	dead := env.After(3, func() {})
	dead.Cancel()
	env.Run(0)
	if got := env.Events(); got != 2 {
		t.Fatalf("Events() = %d, want 2", got)
	}
}

// TestTimerChurnZeroAllocs verifies the pooled calendar: a warmed-up
// schedule/cancel cycle allocates nothing.
func TestTimerChurnZeroAllocs(t *testing.T) {
	env := NewEnv()
	fn := func() {}
	churn := func() {
		tm := env.After(1, fn)
		tm.Cancel()
	}
	for i := 0; i < 64; i++ {
		churn() // warm the item pool
	}
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Fatalf("schedule/cancel allocates %.2f objects per cycle, want 0", allocs)
	}
}

// TestProcSpawnParkZeroAllocs pins the coroutine handoff: once the
// proc pool is warm, a spawn, a Sleep park, a Wait park on an
// InitEvent-readied Event woken by its Trigger (how the middle tier's
// fan-outs park), and the finish back onto the free list allocate
// nothing. Only a pool miss creates a coroutine.
func TestProcSpawnParkZeroAllocs(t *testing.T) {
	env := NewEnv()
	// One-shot events carved from the test's own slab, one per cycle:
	// 64 warm-up cycles plus AllocsPerRun's 1000 runs and its warm-up.
	slab := make([]Event, 64+1001)
	var ev *Event
	payload := interface{}(&struct{}{})
	waiter := func(p *Proc) {
		p.Sleep(1)
		if p.Wait(ev) != payload {
			t.Error("Wait returned the wrong value")
		}
	}
	trigger := func(p *Proc) {
		p.Sleep(2)
		ev.Trigger(payload)
	}
	cycle := func() {
		ev, slab = &slab[0], slab[1:]
		env.InitEvent(ev)
		env.Go("waiter", waiter)
		env.Go("trigger", trigger)
		env.Run(0)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the proc and item pools
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("spawn/park/wake/finish allocates %.2f objects per cycle, want 0", allocs)
	}
}

// TestProcPanicSurfacesInRun checks that a panic in a process body
// reaches Env.Run's caller with its original value instead of killing
// the program from another goroutine.
func TestProcPanicSurfacesInRun(t *testing.T) {
	type boom struct{ at Time }
	env := NewEnv()
	env.Go("boom", func(p *Proc) {
		p.Sleep(3)
		panic(boom{at: p.Now()})
	})
	got := func() (r interface{}) {
		defer func() { r = recover() }()
		env.Run(0)
		return nil
	}()
	if got != (boom{at: 3}) {
		t.Fatalf("recover() = %#v, want boom{at: 3}", got)
	}
}

// TestTickerGrid checks the cadence contract matches a self-
// rescheduling After chain: first fire one interval after arming, last
// fire at the greatest t with t+interval > until >= t.
func TestTickerGrid(t *testing.T) {
	env := NewEnv()
	var ticks []Time
	env.Ticker(0.5).Subscribe(2.0, func() { ticks = append(ticks, env.Now()) })
	env.Run(0)
	want := []Time{0.5, 1.0, 1.5, 2.0}
	if len(ticks) != len(want) {
		t.Fatalf("got %d ticks %v, want %v", len(ticks), ticks, want)
	}
	for i := range want {
		if !almostEq(ticks[i], want[i], 1e-12) {
			t.Fatalf("tick %d at %g, want %g", i, ticks[i], want[i])
		}
	}
	if env.Ticker(0.5).Subscribers() != 0 {
		t.Fatal("expired subscription not dropped")
	}
}

// TestTickerSharedEntry checks the point of the wheel: two subscribers
// at the same cadence cost one calendar entry per tick, fire at the
// same instants, and run in subscription order.
func TestTickerSharedEntry(t *testing.T) {
	env := NewEnv()
	var order []int
	env.Ticker(1).Subscribe(3, func() { order = append(order, 1) })
	env.Ticker(1).Subscribe(3, func() { order = append(order, 2) })
	if got := env.Pending(); got != 1 {
		t.Fatalf("two same-cadence subscriptions cost %d calendar entries, want 1", got)
	}
	env.Run(0)
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestTickerSubscribeMidTick subscribes from inside a tick callback:
// the new subscriber joins the same tick (append-tolerant index loop)
// and the shared grid afterward.
func TestTickerSubscribeMidTick(t *testing.T) {
	env := NewEnv()
	var a, b []Time
	tk := env.Ticker(1)
	tk.Subscribe(2, func() {
		a = append(a, env.Now())
		if len(a) == 1 {
			tk.Subscribe(2, func() { b = append(b, env.Now()) })
		}
	})
	env.Run(0)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("a fired %d times, b %d times; want 2 and 2 (b joins a's first tick)", len(a), len(b))
	}
	if !almostEq(b[0], 1, 0) || !almostEq(b[1], 2, 0) {
		t.Fatalf("mid-tick subscriber fired at %v, want [1 2]", b)
	}
}

// TestTickerBadIntervalPanics rejects zero, negative, and NaN cadences.
func TestTickerBadIntervalPanics(t *testing.T) {
	env := NewEnv()
	for _, bad := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Ticker(%g) did not panic", bad)
				}
			}()
			env.Ticker(bad)
		}()
	}
}

// TestSameInstantCascadeOrder pins the fast-lane compatibility
// contract: a callback scheduling more work at the current instant
// interleaves with already-scheduled same-instant and future entries in
// strict (t, seq) order.
func TestSameInstantCascadeOrder(t *testing.T) {
	env := NewEnv()
	var order []string
	env.At(1, func() {
		order = append(order, "a")
		env.At(1, func() { order = append(order, "a.child") })
	})
	env.At(1, func() { order = append(order, "b") })
	env.At(2, func() { order = append(order, "c") })
	env.Run(0)
	want := []string{"a", "b", "a.child", "c"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestWaitTimeoutZeroAllocs pins the bounded-wait park the middle
// tier's replication fan-outs use: once the pools are warm, a
// WaitTimeout that completes (its timer cancelled) and one that expires
// (its token withdrawn from the event) allocate nothing.
func TestWaitTimeoutZeroAllocs(t *testing.T) {
	env := NewEnv()
	slab := make([]Event, 2*(64+1001))
	var hit, miss *Event
	waiter := func(p *Proc) {
		if _, ok := p.WaitTimeout(hit, 5); !ok {
			t.Error("WaitTimeout on a triggered event timed out")
		}
		if _, ok := p.WaitTimeout(miss, 1); ok {
			t.Error("WaitTimeout on an idle event completed")
		}
	}
	trigger := func() { hit.Trigger(nil) }
	cycle := func() {
		hit, miss, slab = &slab[0], &slab[1], slab[2:]
		env.InitEvent(hit)
		env.InitEvent(miss)
		env.Go("waiter", waiter)
		env.After(2, trigger)
		env.Run(0)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the proc and item pools
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("WaitTimeout complete/expire allocates %.2f objects per cycle, want 0", allocs)
	}
}
