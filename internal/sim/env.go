package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds.
type Time = float64

// Env is the simulation environment: a virtual clock plus an event
// calendar. The zero value is not usable; construct with NewEnv.
type Env struct {
	now Time
	cal calendar
	ln  lane
	seq uint64

	// live counts scheduled-but-not-yet-fired entries; cancellation
	// decrements it immediately, so Pending() is O(1) and honest even
	// under timeout-heavy cancel storms.
	live int
	// events counts dispatched (non-cancelled) calendar entries — the
	// denominator of the simulator-performance metrics.
	events uint64

	freeItems []*item
	freeProcs []*Proc
	tickers   map[float64]*Ticker

	// evSlab hands out Events in bulk; see NewEvent.
	evSlab []Event
	evPos  int
}

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() Time { return e.now }

// Events reports the number of calendar entries dispatched so far —
// the simulator's raw unit of work. Cancelled entries never count.
func (e *Env) Events() uint64 { return e.events }

// newItem takes a pooled (or fresh) calendar entry stamped with the
// next seq. Scheduling in the past or at NaN panics: NaN compares
// false against everything and would silently corrupt the heap order.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) newItem(t Time) *item {
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN time")
	}
	if t < e.now {
		//detcheck:hotalloc panic path: the run is already dead, formatting is free
		panic(fmt.Sprintf("sim: scheduling in the past: %g < %g", t, e.now))
	}
	e.seq++
	var it *item
	if n := len(e.freeItems); n > 0 {
		it = e.freeItems[n-1]
		e.freeItems[n-1] = nil
		e.freeItems = e.freeItems[:n-1]
	} else {
		//detcheck:hotalloc pool miss: warmup-only, steady state recycles via freeItems
		it = &item{}
	}
	it.t = t
	it.seq = e.seq
	it.cancelled = false
	e.live++
	return it
}

// release returns a fired or cancelled item to the pool. The item
// keeps its seq until reuse, so stale Timers recognize it.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) release(it *item) {
	it.fn = nil
	it.proc = nil
	it.idx = freeIdx
	//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
	e.freeItems = append(e.freeItems, it)
}

// enqueue files the item: entries at exactly the current instant take
// the FIFO fast lane, everything else goes through the heap.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) enqueue(it *item) {
	if it.t == e.now { //detcheck:floateq same-instant entries take the O(1) fast lane; (t,seq) order is unchanged
		e.ln.push(it)
		return
	}
	e.cal.push(it)
}

// schedule posts fn to run at time t. It returns the calendar entry so
// callers can cancel it.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) schedule(t Time, fn func()) *item {
	it := e.newItem(t)
	it.fn = fn
	e.enqueue(it)
	return it
}

// scheduleWake posts a conditional process resume at time t without
// allocating a closure: the proc runs iff its park generation still
// matches tk when the entry fires.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) scheduleWake(t Time, tk wakeToken) *item {
	it := e.newItem(t)
	it.proc = tk.p
	it.gen = tk.gen
	e.enqueue(it)
	return it
}

// Timer is a cancellable scheduled callback. The zero Timer is valid
// and Cancel on it is a no-op; Timers are plain values, so the hot
// path never heap-allocates one.
type Timer struct {
	env *Env
	it  *item
	seq uint64
}

// timerFor wraps a scheduled item in a cancellation handle.
func (e *Env) timerFor(it *item) Timer { return Timer{env: e, it: it, seq: it.seq} }

// After schedules fn to run after d seconds of virtual time and returns
// a cancellable Timer.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) After(d float64, fn func()) Timer {
	return e.timerFor(e.schedule(e.now+d, fn))
}

// At schedules fn at absolute virtual time t.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) At(t Time, fn func()) Timer {
	return e.timerFor(e.schedule(t, fn))
}

// wakeAt schedules a conditional process resume and returns its Timer
// (the cancellable half of WaitTimeout and Sleep).
func (e *Env) wakeAt(t Time, tk wakeToken) Timer {
	return e.timerFor(e.scheduleWake(t, tk))
}

// Cancel prevents the timer's callback from running and reports
// whether it did: false means the callback already ran or was already
// cancelled. A heap entry is removed in place (no leak until pop); a
// fast-lane entry is marked and skipped when its instant drains.
// Cancelling an already-fired, already-cancelled, or zero Timer is a
// no-op — the seq stamp detects items that were recycled for a later
// schedule.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (t Timer) Cancel() bool {
	it := t.it
	if it == nil || it.seq != t.seq || it.cancelled {
		return false
	}
	switch {
	case it.idx >= 0:
		t.env.cal.remove(it.idx)
		t.env.live--
		t.env.release(it)
	case it.idx == laneIdx:
		it.cancelled = true
		t.env.live--
	default:
		return false
	}
	return true
}

// rearm moves a pending callback timer (one from At or After) to
// absolute time t and returns its new handle. The entry gets exactly the (t, seq) that tm.Cancel followed
// by At(t, fn) would give it, so dispatch order is unchanged; a pending
// heap entry is simply re-keyed in place with one sift instead of a
// remove and a push. Fired, cancelled and fast-lane timers, and targets
// at or before the current instant, take the Cancel+At path.
//
//hot:per-event scheduler spine, pinned by TestPSLinkCallbackChurnZeroAllocs
func (e *Env) rearm(tm Timer, t Time, fn func()) Timer {
	it := tm.it
	if it == nil || it.seq != tm.seq || it.cancelled || it.idx < 0 || !(t > e.now) {
		tm.Cancel()
		return e.At(t, fn)
	}
	e.seq++
	it.t = t
	it.seq = e.seq
	it.fn = fn
	e.cal.fix(it.idx)
	return e.timerFor(it)
}

// next pops the earliest live calendar entry, nil when the calendar is
// empty. The lane is globally (t, seq)-sorted, so comparing its head
// against the heap root preserves the total dispatch order.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) next() *item {
	for {
		var it *item
		switch {
		case e.ln.n > 0 && e.cal.len() > 0:
			if calLess(e.cal.items[0], e.ln.peek()) {
				it = e.cal.popMin()
			} else {
				it = e.ln.pop()
			}
		case e.ln.n > 0:
			it = e.ln.pop()
		case e.cal.len() > 0:
			it = e.cal.popMin()
		default:
			return nil
		}
		if it.cancelled {
			e.release(it) // live was decremented at Cancel
			continue
		}
		return it
	}
}

// fire dispatches one live entry and recycles it. The item is released
// before the callback runs — the callback may immediately reschedule
// and reuse it.
//
//hot:per-event scheduler spine, pinned by TestTimerChurnZeroAllocs
func (e *Env) fire(it *item) {
	e.live--
	e.events++
	if p := it.proc; p != nil {
		gen := it.gen
		e.release(it)
		if !p.done && p.gen == gen {
			p.next()
		}
		return
	}
	fn := it.fn
	e.release(it)
	fn()
}

// Run processes events until the calendar is empty or the clock would
// pass `until` (0 means run until idle). It returns the final time.
// The clock never moves backward: re-entering with an earlier horizon
// is a no-op.
func (e *Env) Run(until Time) Time {
	for {
		it := e.next()
		if it == nil {
			break
		}
		if until > 0 && it.t > until {
			// Put it back and stop at the horizon.
			e.cal.push(it)
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.now = it.t
		e.fire(it)
	}
	if until > e.now {
		e.now = until
	}
	return e.now
}

// Step processes a single calendar entry, returning false when the
// calendar is empty.
func (e *Env) Step() bool {
	it := e.next()
	if it == nil {
		return false
	}
	e.now = it.t
	e.fire(it)
	return true
}

// Pending reports the number of live calendar entries in O(1).
func (e *Env) Pending() int { return e.live }

// calendarLen reports the raw size of the calendar structures,
// including lazily-cancelled fast-lane entries — the regression tests
// use it to pin that cancellation does not leak heap slots.
func (e *Env) calendarLen() int { return e.cal.len() + e.ln.n }
