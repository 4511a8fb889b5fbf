package slo

import (
	"fmt"

	"github.com/disagg/smartds/internal/sim"
)

// Alert is one fired SLO violation. Alerts are produced in a total
// deterministic order: grid alerts in (tick, spec) order, TTR alerts in
// campaign-schedule order after the run.
type Alert struct {
	SLO      string  // the spec item as written
	Kind     string  // "avail", "p999", "ttr"
	Severity string  // "page"
	At       float64 // virtual seconds when the alert fired
	// BurnShort/BurnLong are the burn rates that tripped the alert
	// (for ttr both carry ttr/ceiling).
	BurnShort, BurnLong float64
	Detail              string
}

// cell is one sampling-grid interval's completion counts.
type cell struct {
	total, bad uint64
}

// window is a fixed-size ring of grid cells with running sums, so each
// tick updates in O(1) regardless of window length.
type window struct {
	cells      []cell
	next       int
	total, bad uint64
}

func newWindow(n int) *window {
	if n < 1 {
		n = 1
	}
	return &window{cells: make([]cell, n)}
}

// push replaces the oldest cell with c.
func (w *window) push(c cell) {
	old := w.cells[w.next]
	w.total += c.total - old.total
	w.bad += c.bad - old.bad
	w.cells[w.next] = c
	w.next = (w.next + 1) % len(w.cells)
}

// badFrac is the bad-event fraction over the window (0 when empty: no
// traffic burns no budget).
func (w *window) badFrac() float64 {
	if w.total == 0 {
		return 0
	}
	return float64(w.bad) / float64(w.total)
}

// specState is one objective's evaluation state.
type specState struct {
	spec   Spec
	short  *window
	long   *window
	cur    cell // completions accumulated since the last tick
	firing bool
}

// Engine evaluates objectives against the completion stream on the
// sampling grid. Feed it with Observe from the client completion path,
// start grid evaluation with Run, and append recovery results with
// ObserveTTR once the fault campaign's stats are in.
type Engine struct {
	env    *sim.Env
	states []*specState
	alerts []Alert
}

// NewEngine builds an engine evaluating specs on the sim.SampleInterval
// grid of virtual time.
func NewEngine(env *sim.Env, specs []Spec) *Engine {
	e := &Engine{env: env}
	for _, sp := range specs {
		if sp.Kind == TTRCeiling {
			e.states = append(e.states, &specState{spec: sp})
			continue
		}
		e.states = append(e.states, &specState{
			spec:  sp,
			short: newWindow(int(sp.Short/sim.SampleInterval + 0.5)),
			long:  newWindow(int(sp.Long/sim.SampleInterval + 0.5)),
		})
	}
	return e
}

// Observe feeds one request completion. The signature matches the
// cluster's completion hook (virtual time, latency, errored); the
// timestamp itself is unused because cells close on the grid. O(#specs)
// and allocation-free: safe on the completion hot path.
func (e *Engine) Observe(_, lat float64, err bool) {
	if e == nil {
		return
	}
	for _, st := range e.states {
		if st.short == nil {
			continue
		}
		st.cur.total++
		if st.spec.bad(lat, err) {
			st.cur.bad++
		}
	}
}

// Run subscribes the engine to the environment's shared sampling-grid
// ticker until stop: every tick closes the current cell and evaluates
// the burn-rate windows.
func (e *Engine) Run(stop float64) {
	if e == nil || len(e.states) == 0 {
		return
	}
	e.env.Ticker().Subscribe(stop, e.tick)
}

// tick closes the grid cell for every objective and fires rising-edge
// alerts whose burn rate trips both windows.
//
//cold:epoch-scale alert evaluation; alert formatting allocates by design
func (e *Engine) tick() {
	now := e.env.Now()
	for _, st := range e.states {
		if st.short == nil {
			continue
		}
		st.short.push(st.cur)
		st.long.push(st.cur)
		st.cur = cell{}
		budget := st.spec.budget()
		if budget <= 0 {
			continue
		}
		burnShort := st.short.badFrac() / budget
		burnLong := st.long.badFrac() / budget
		trip := burnShort >= st.spec.Burn && burnLong >= st.spec.Burn
		switch {
		case trip && !st.firing:
			st.firing = true
			e.alerts = append(e.alerts, Alert{
				SLO: st.spec.Name, Kind: st.spec.Kind.String(), Severity: "page",
				At: now, BurnShort: burnShort, BurnLong: burnLong,
				Detail: fmt.Sprintf("burn %.3gx/%.3gx over %s/%s windows (threshold %g)",
					burnShort, burnLong,
					formatSeconds(st.spec.Short), formatSeconds(st.spec.Long), st.spec.Burn),
			})
		case !trip && st.firing:
			st.firing = false
		}
	}
}

// ObserveTTR evaluates one fault recovery against every ttr objective:
// burn is ttr/ceiling, and burn >= 1 (or a recovery that never
// happened, ttr < 0) fires. Call once per recovery, in schedule order,
// after the campaign's stats are final; at stamps the alert (the end of
// the run).
func (e *Engine) ObserveTTR(at float64, kind, target string, ttr float64) {
	if e == nil {
		return
	}
	for _, st := range e.states {
		if st.spec.Kind != TTRCeiling {
			continue
		}
		burn := ttr / st.spec.Ceiling
		detail := fmt.Sprintf("%s:%s ttr %s over ceiling %s",
			kind, target, formatSeconds(ttr), formatSeconds(st.spec.Ceiling))
		if ttr < 0 {
			burn = -1
			detail = fmt.Sprintf("%s:%s never recovered (ceiling %s)",
				kind, target, formatSeconds(st.spec.Ceiling))
		} else if burn < 1 {
			continue
		}
		e.alerts = append(e.alerts, Alert{
			SLO: st.spec.Name, Kind: st.spec.Kind.String(), Severity: "page",
			At: at, BurnShort: burn, BurnLong: burn, Detail: detail,
		})
	}
}

// Alerts returns every fired alert in fire order.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return e.alerts
}

// formatSeconds renders a duration deterministically for alert details
// (µs below 1 ms, ms below 1 s, else seconds).
func formatSeconds(sec float64) string {
	switch {
	case sec < 0:
		return "never"
	case sec < 1e-3:
		return fmt.Sprintf("%.3gus", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.3gms", sec*1e3)
	default:
		return fmt.Sprintf("%.3gs", sec)
	}
}
