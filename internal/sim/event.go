package sim

// Event is a one-shot completion. Processes block on it with Wait;
// anything (another process, a scheduler callback, a resource) completes
// it with Trigger, optionally attaching a value. Waiting on an event
// that already fired returns immediately.
//
// The first waiter and the first callback live inline — the common
// single-waiter, single-callback event never allocates a slice.
type Event struct {
	env  *Env
	done bool
	val  interface{}

	nw   int
	w0   wakeToken
	more []wakeToken

	ncb int
	cb0 func(interface{})
	cbs []func(interface{})
}

// NewEvent returns an untriggered event bound to the environment.
// Events are carved from a slab: one bulk allocation hands out eventSlab
// events, so the per-event allocator cost disappears from the hot path.
// Events are one-shot and never recycled — a caller may keep the pointer
// and poll Done long after the trigger — so the slab only amortizes
// allocation, it never reuses storage.
func (e *Env) NewEvent() *Event {
	if e.evPos == len(e.evSlab) {
		//detcheck:hotalloc slab refill: one allocation per eventSlab events
		e.evSlab = make([]Event, eventSlab)
		e.evPos = 0
	}
	ev := &e.evSlab[e.evPos]
	e.evPos++
	ev.env = e
	return ev
}

// InitEvent readies a zero Event embedded in the caller's own record,
// for owners that carve events from their own slabs. The event is then
// exactly what NewEvent would return. Like any event it is one-shot, so
// the record holding it must never be reused.
func (e *Env) InitEvent(ev *Event) { ev.env = e }

// eventSlab is the slab chunk size. A chunk is retained until every
// event in it is unreachable; events are short-lived, so retention is
// bounded by a few chunks.
const eventSlab = 512

// Done reports whether the event has been triggered.
func (ev *Event) Done() bool { return ev.done }

// Value returns the value the event was triggered with (nil before).
func (ev *Event) Value() interface{} { return ev.val }

// addWaiter appends a park token in arrival order.
func (ev *Event) addWaiter(tk wakeToken) {
	if ev.nw == 0 {
		ev.w0 = tk
	} else {
		//detcheck:hotalloc second and later waiters only; the first lives inline
		ev.more = append(ev.more, tk)
	}
	ev.nw++
}

// removeWaiter drops one token, preserving arrival order of the rest.
func (ev *Event) removeWaiter(tk wakeToken) {
	if ev.nw == 0 {
		return
	}
	if ev.w0 == tk {
		if len(ev.more) > 0 {
			ev.w0 = ev.more[0]
			copy(ev.more, ev.more[1:])
			ev.more = ev.more[:len(ev.more)-1]
		}
		ev.nw--
		return
	}
	for i, w := range ev.more {
		if w == tk {
			copy(ev.more[i:], ev.more[i+1:])
			ev.more = ev.more[:len(ev.more)-1]
			ev.nw--
			return
		}
	}
}

// Trigger completes the event, waking all waiters and running all
// registered callbacks. Triggering twice panics: an event is one-shot
// and double completion always indicates a bookkeeping bug upstream.
func (ev *Event) Trigger(val interface{}) {
	if ev.done {
		panic("sim: event triggered twice")
	}
	ev.done = true
	ev.val = val
	if ev.nw > 0 {
		ev.env.wake(ev.w0)
		for _, tk := range ev.more {
			ev.env.wake(tk)
		}
		ev.nw = 0
		ev.w0 = wakeToken{}
		ev.more = nil
	}
	if ev.ncb > 0 {
		cb0 := ev.cb0
		cbs := ev.cbs
		ev.ncb = 0
		ev.cb0 = nil
		ev.cbs = nil
		cb0(val)
		for _, cb := range cbs {
			cb(val)
		}
	}
}

// OnTrigger registers a callback to run (in scheduler context) when the
// event fires. If the event already fired, cb runs immediately.
func (ev *Event) OnTrigger(cb func(interface{})) {
	if ev.done {
		cb(ev.val)
		return
	}
	if ev.ncb == 0 {
		ev.cb0 = cb
	} else {
		ev.cbs = append(ev.cbs, cb)
	}
	ev.ncb++
}

// Wait blocks the process until the event fires and returns its value.
func (p *Proc) Wait(ev *Event) interface{} {
	if ev.done {
		return ev.val
	}
	ev.addWaiter(p.token())
	p.park()
	return ev.val
}

// WaitTimeout blocks until the event fires or d seconds elapse. It
// returns the event value and true on completion, or nil and false on
// timeout (the event remains waitable).
func (p *Proc) WaitTimeout(ev *Event, d float64) (interface{}, bool) {
	if ev.done {
		return ev.val, true
	}
	tk := p.token()
	ev.addWaiter(tk)
	timer := p.env.wakeAt(p.env.now+d, tk)
	p.park()
	timer.Cancel()
	if ev.done {
		return ev.val, true
	}
	// Timed out: drop our stale token so a later Trigger doesn't try to
	// wake a generation we've moved past (harmless but wasteful).
	ev.removeWaiter(tk)
	return nil, false
}

// WaitAll blocks until every event has fired.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// AnyOf returns an event that fires as soon as any input event fires,
// carrying the index of the first one.
func (e *Env) AnyOf(evs ...*Event) *Event {
	out := e.NewEvent()
	for i, ev := range evs {
		i := i
		ev.OnTrigger(func(interface{}) {
			if !out.done {
				out.Trigger(i)
			}
		})
	}
	return out
}
