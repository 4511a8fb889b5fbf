package faults

import (
	"fmt"
	"sort"

	"github.com/disagg/smartds/internal/metrics"
)

// Monitor turns the client-visible completion stream into recovery
// metrics: how long after each fault the first request completed again
// (time-to-reroute), how large the worst completion gap was
// (unavailability), and how long tail latency stayed elevated over the
// pre-fault baseline. The cluster feeds it from every client's
// completion hook; all timestamps are virtual time.
type Monitor struct {
	completions []completion
}

type completion struct {
	at, lat float64
	err     bool
}

// OnCompletion records one client-visible request completion.
func (m *Monitor) OnCompletion(at, lat float64, err bool) {
	m.completions = append(m.completions, completion{at: at, lat: lat, err: err})
}

// Recovery is the per-event view of how service came back.
type Recovery struct {
	Event Event
	// TimeToRecover is the delay from the fault's start to the first
	// successful completion at or after it; negative when no completion
	// followed (service never recovered inside the run).
	TimeToRecover float64
}

// Stats is the campaign-wide recovery summary.
type Stats struct {
	BaselineP99 float64 // pre-fault p99 latency (successful completions)
	Recoveries  []Recovery
	// MaxGap is the widest gap between consecutive successful
	// completions once faults began — the worst unavailability interval.
	MaxGap float64
	// Unavailable sums all completion gaps above GapThreshold.
	Unavailable  float64
	GapThreshold float64
	// ElevatedWindow is the total time tail latency spent above
	// 3x the pre-fault baseline p99 after faults began.
	ElevatedWindow float64
	// Errors counts failed completions.
	Errors int
}

// gapThresholdFloor keeps tiny inter-arrival jitter out of the
// unavailability sum even when the baseline is very fast.
const gapThresholdFloor = 250e-6

// Stats computes the recovery summary for a schedule. The monitor's
// completion stream is consulted in arrival order (already sorted:
// virtual time is monotonic).
func (m *Monitor) Stats(sched *Schedule) Stats {
	st := Stats{GapThreshold: gapThresholdFloor}
	faultStart := sched.FirstStart()

	var baseline []float64
	for _, c := range m.completions {
		if c.err {
			st.Errors++
			continue
		}
		if c.at < faultStart {
			baseline = append(baseline, c.lat)
		}
	}
	st.BaselineP99 = percentile(baseline, 0.99)

	for _, e := range sched.Events {
		rec := Recovery{Event: e, TimeToRecover: -1}
		for _, c := range m.completions {
			if !c.err && c.at >= e.Start {
				rec.TimeToRecover = c.at - e.Start
				break
			}
		}
		st.Recoveries = append(st.Recoveries, rec)
	}

	// Completion gaps and elevated-latency spans after faults began.
	elevated := 3 * st.BaselineP99
	prevAt := faultStart
	inSpan := false
	spanStart := 0.0
	for _, c := range m.completions {
		if c.err || c.at < faultStart {
			continue
		}
		if gap := c.at - prevAt; gap > 0 {
			if gap > st.MaxGap {
				st.MaxGap = gap
			}
			if gap > st.GapThreshold {
				st.Unavailable += gap
			}
		}
		prevAt = c.at
		if st.BaselineP99 > 0 {
			if c.lat > elevated && !inSpan {
				inSpan = true
				spanStart = c.at
			} else if c.lat <= elevated && inSpan {
				inSpan = false
				st.ElevatedWindow += c.at - spanStart
			}
		}
	}
	if inSpan {
		st.ElevatedWindow += prevAt - spanStart
	}
	return st
}

// Table renders the stats as a metrics table (one row per event).
func (st Stats) Table() *metrics.Table {
	t := metrics.NewTable("fault recovery",
		"fault", "target", "window", "time-to-recover")
	for _, r := range st.Recoveries {
		ttr := "never"
		if r.TimeToRecover >= 0 {
			ttr = fmt.Sprintf("%.0f us", r.TimeToRecover*1e6)
		}
		t.AddRow(r.Event.Kind.String(), r.Event.Target,
			fmt.Sprintf("%.1f-%.1f ms", r.Event.Start*1e3, r.Event.End()*1e3), ttr)
	}
	t.AddNote("baseline p99 %.0f us; max completion gap %.0f us; unavailable %.0f us (gaps > %.0f us); elevated-latency window %.0f us; %d errored completions",
		st.BaselineP99*1e6, st.MaxGap*1e6, st.Unavailable*1e6,
		st.GapThreshold*1e6, st.ElevatedWindow*1e6, st.Errors)
	return t
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
