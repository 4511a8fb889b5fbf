package sim

import (
	"math"
	"testing"
)

// TestTimerCancelBoundedCalendar pins the slow-leak fix: a cancelled
// heap entry is removed in place, so a schedule/cancel churn loop —
// the shape every GetTimeout and retransmission timer produces — keeps
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

// TestQueueMeanLenMidRunCreation pins the MeanLen divisor fix: a queue
// created at t=10 holding one item for five seconds has mean occupancy
// 1.0 — not 1/3, which dividing by absolute now would report.
func TestQueueMeanLenMidRunCreation(t *testing.T) {
	env := NewEnv()
	var mean float64
	env.Go("w", func(p *Proc) {
		p.Sleep(10)
		q := env.NewQueue("mid")
		q.Put(1)
		p.Sleep(5)
		mean = q.MeanLen()
	})
	env.Run(0)
	if !almostEq(mean, 1.0, 1e-9) {
		t.Fatalf("MeanLen = %g, want 1.0 (occupancy since creation, not since t=0)", mean)
	}
}

// TestQueueMeanLenEmptyWindow checks the zero-duration guard.
func TestQueueMeanLenEmptyWindow(t *testing.T) {
	env := NewEnv()
	q := env.NewQueue("fresh")
	if got := q.MeanLen(); got != 0 {
		t.Fatalf("MeanLen on a zero-age queue = %g", got)
	}
}

// TestQueueGetTimeoutSameInstantRace pins the lost-item fix for both
// same-instant orderings: whether the Put lands before or after the
// deadline callback at the exact timeout instant, the getter reports
// failure AND the value survives at the head of the queue.
func TestQueueGetTimeoutSameInstantRace(t *testing.T) {
	for _, putFirst := range []bool{true, false} {
		name := "put-scheduled-first"
		if !putFirst {
			name = "timer-scheduled-first"
		}
		t.Run(name, func(t *testing.T) {
			env := NewEnv()
			q := env.NewQueue("race")
			if putFirst {
				// The Put callback holds a smaller seq than the timeout
				// timer, so it dispatches first at t=1.
				env.At(1, func() { q.Put(42) })
			}
			var got interface{}
			var ok bool
			env.Go("getter", func(p *Proc) {
				got, ok = q.GetTimeout(p, 1)
			})
			if !putFirst {
				// Scheduled after the proc exists: the timeout timer wins
				// the seq race and fires before the Put callback.
				env.At(1, func() { q.Put(42) })
			}
			env.Run(0)
			if ok {
				t.Fatalf("GetTimeout won a tie it must lose: got %v", got)
			}
			v, have := q.TryGet()
			if !have || v != 42 {
				t.Fatalf("raced value lost: TryGet = (%v, %v), want (42, true)", v, have)
			}
			if q.Len() != 0 {
				t.Fatalf("queue holds %d extra items", q.Len())
			}
		})
	}
}

// TestQueueGetTimeoutLateDelivery checks the plain miss: the value
// arrives after the deadline and goes to the buffer, not the timed-out
// waiter.
func TestQueueGetTimeoutLateDelivery(t *testing.T) {
	env := NewEnv()
	q := env.NewQueue("late")
	var ok bool
	env.Go("getter", func(p *Proc) {
		_, ok = q.GetTimeout(p, 1)
	})
	env.At(2, func() { q.Put("v") })
	env.Run(0)
	if ok {
		t.Fatal("GetTimeout succeeded past its deadline")
	}
	if v, have := q.TryGet(); !have || v != "v" {
		t.Fatalf("late value lost: (%v, %v)", v, have)
	}
}

// TestQueueRingNilsPoppedSlots pins the GC-pinning fix: after a pop the
// ring slot must not retain the payload pointer.
func TestQueueRingNilsPoppedSlots(t *testing.T) {
	env := NewEnv()
	q := env.NewQueue("ring")
	for i := 0; i < 20; i++ {
		q.Put(&struct{ pad [64]byte }{})
	}
	for {
		if _, ok := q.TryGet(); !ok {
			break
		}
	}
	for i, s := range q.buf {
		if s != nil {
			t.Fatalf("ring slot %d still pins a popped payload", i)
		}
	}
}

// TestQueueWrapAround exercises the ring across several grow/wrap
// cycles with interleaved puts and gets, checking FIFO order.
func TestQueueWrapAround(t *testing.T) {
	env := NewEnv()
	q := env.NewQueue("wrap")
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Put(next)
			next++
		}
		for i := 0; i < 5; i++ {
			v, ok := q.TryGet()
			if !ok || v != want {
				t.Fatalf("round %d: got (%v,%v), want %d", round, v, ok, want)
			}
			want++
		}
	}
	for {
		v, ok := q.TryGet()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("drain: got %v, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, put %d", want, next)
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

// TestQueueSteadyStateZeroAllocs verifies the ring buffer: once the
// ring has grown to cover the working set, put/get cycles are
// allocation-free.
func TestQueueSteadyStateZeroAllocs(t *testing.T) {
	env := NewEnv()
	q := env.NewQueue("steady")
	payload := interface{}(&struct{}{})
	cycle := func() {
		q.Put(payload)
		if _, ok := q.TryGet(); !ok {
			t.Fatal("TryGet failed on non-empty queue")
		}
	}
	for i := 0; i < 64; i++ {
		cycle() // establish ring capacity
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("queue put/get allocates %.2f objects per cycle, want 0", allocs)
	}
}

// TestProcSpawnParkZeroAllocs pins the coroutine handoff: once the
// proc pool is warm, a spawn, a Sleep park, a Queue.Get park woken by a
// Put, and the finish back onto the free list allocate nothing. Only a
// pool miss creates a coroutine.
func TestProcSpawnParkZeroAllocs(t *testing.T) {
	env := NewEnv()
	q := env.NewQueue("handoff")
	payload := interface{}(&struct{}{})
	waiter := func(p *Proc) {
		p.Sleep(1)
		if q.Get(p) != payload {
			t.Error("Get returned the wrong item")
		}
	}
	putter := func(p *Proc) {
		p.Sleep(2)
		q.Put(payload)
	}
	cycle := func() {
		env.Go("waiter", waiter)
		env.Go("putter", putter)
		env.Run(0)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the proc, item, and wait-node pools
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
