package sim

// SampleInterval is the one virtual-time sampling grid, 100 µs: the
// telemetry series sampler, the SLO burn-rate engine and the trace
// counter sampler all ride Env.Ticker, so they share one calendar
// entry per tick.
const SampleInterval = 100e-6

// Ticker batches every subscriber of the SampleInterval grid into a
// single calendar entry per tick. The dense sampling grids — the
// telemetry sampler and the trace counter sampler both walk a 100 µs
// virtual-clock grid — used to each maintain their own self-
// rescheduling timer chain; with N samplers that was N heap pushes and
// N pops per grid instant. A Ticker schedules once per tick and fans
// out to all subscribers in subscription order, which is both cheaper
// and deterministic.
//
// Phase: the first tick after a Subscribe that arms an idle ticker
// fires one interval later; subscribers joining an already-armed
// ticker join the existing grid (their first callback arrives at the
// next shared tick, at most one interval away). Subscribers therefore
// share instants, which is exactly what the sampling grid wants.
type Ticker struct {
	env    *Env
	subs   []tickSub
	armed  bool
	tickFn func()
}

type tickSub struct {
	fn    func()
	until Time
}

// Ticker returns the environment's shared ticker on the
// SampleInterval grid, creating it on first use.
func (e *Env) Ticker() *Ticker {
	if e.ticker == nil {
		e.ticker = &Ticker{env: e}
		e.ticker.tickFn = e.ticker.tick
	}
	return e.ticker
}

// Subscribe registers fn to run on every tick whose successor would
// still be at or before until — the same cadence contract as a
// self-rescheduling After chain ("fire at t, continue while
// t+interval <= until"). Subscribing arms the ticker if it was idle.
func (tk *Ticker) Subscribe(until Time, fn func()) {
	tk.subs = append(tk.subs, tickSub{fn: fn, until: until})
	if !tk.armed {
		tk.armed = true
		tk.env.After(SampleInterval, tk.tickFn)
	}
}

// Subscribers reports the number of live subscriptions.
func (tk *Ticker) Subscribers() int { return len(tk.subs) }

// tick runs every subscriber, expires the ones whose window closed,
// and re-arms while any remain. Subscribers added from within a tick
// callback run later that same tick (the index loop tolerates
// appends).
func (tk *Ticker) tick() {
	now := tk.env.now
	for i := 0; i < len(tk.subs); i++ {
		tk.subs[i].fn()
	}
	n := 0
	for _, s := range tk.subs {
		if now+SampleInterval <= s.until {
			tk.subs[n] = s
			n++
		}
	}
	clear(tk.subs[n:])
	tk.subs = tk.subs[:n]
	if len(tk.subs) > 0 {
		tk.env.After(SampleInterval, tk.tickFn)
	} else {
		tk.armed = false
	}
}
