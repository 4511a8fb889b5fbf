package telemetry

import (
	"fmt"

	"github.com/disagg/smartds/internal/metrics"
)

// The regression policy cmd/smartds-report enforces: how much a run
// may slow down relative to the baseline report before the comparison
// fails.
const (
	// maxThroughputDrop fails a run whose throughput fell below
	// baseline*(1-frac).
	maxThroughputDrop = 0.05
	// maxP999Inflate fails a run whose p999 latency rose above
	// baseline*(1+frac).
	maxP999Inflate = 0.25
	// p999Floor ignores p999 inflation while the current p999 sits
	// under this many seconds — relative noise on microsecond tails is
	// meaningless.
	p999Floor = 25e-6
	// minRequests skips runs whose baseline measured fewer requests
	// than this (tiny windows are all noise). Only the baseline is
	// held to it: a current run that collapsed below it is exactly
	// what the gate must catch.
	minRequests = 50
)

// RunDelta is one matched run pair's comparison.
type RunDelta struct {
	Key        string
	Base, Cur  *RunRecord
	Violations []string
}

// ThroughputRatio returns cur/base throughput (0 when base is zero).
func (d RunDelta) ThroughputRatio() float64 {
	if d.Base.ThroughputBps <= 0 {
		return 0
	}
	return d.Cur.ThroughputBps / d.Base.ThroughputBps
}

// P999Ratio returns cur/base p999 (0 when base is zero).
func (d RunDelta) P999Ratio() float64 {
	if d.Base.Latency.P999 <= 0 {
		return 0
	}
	return d.Cur.Latency.P999 / d.Base.Latency.P999
}

// Compare matches the two reports' runs by key and applies the gate.
// maxEPSDrop fails the comparison when the simulator's own wall-clock
// event rate fell below baseline*(1-frac); it is checked only when
// both reports carry a SimPerf block (wall-clock measurements exist
// only in bench-produced reports), and 0 disables it. It returns
// every matched pair (baseline order) plus the flat list of
// violations; an empty violation list means the gate passes. Runs only
// present in the current report are informational; runs missing from
// the current report violate the gate (a benchmark silently vanishing
// must not pass CI).
func Compare(base, cur *Report, maxEPSDrop float64) ([]RunDelta, []string) {
	curByKey := make(map[string]*RunRecord, len(cur.Runs))
	for _, rr := range cur.Runs {
		curByKey[rr.Key()] = rr
	}
	var deltas []RunDelta
	var violations []string
	for _, b := range base.Runs {
		c, ok := curByKey[b.Key()]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline but missing from current report", b.Key()))
			continue
		}
		d := RunDelta{Key: b.Key(), Base: b, Cur: c}
		if b.Requests >= minRequests {
			if b.ThroughputBps > 0 && c.ThroughputBps < b.ThroughputBps*(1-maxThroughputDrop) {
				d.Violations = append(d.Violations, fmt.Sprintf(
					"throughput regressed %.1f%%: %s -> %s (gate %.0f%%)",
					(1-d.ThroughputRatio())*100,
					metrics.FormatGbps(b.ThroughputBps), metrics.FormatGbps(c.ThroughputBps),
					maxThroughputDrop*100))
			}
			if b.Latency.P999 > 0 && c.Latency.P999 > p999Floor &&
				c.Latency.P999 > b.Latency.P999*(1+maxP999Inflate) {
				d.Violations = append(d.Violations, fmt.Sprintf(
					"p999 inflated %.1f%%: %s -> %s (gate %.0f%% above %s)",
					(d.P999Ratio()-1)*100,
					metrics.FormatDuration(b.Latency.P999), metrics.FormatDuration(c.Latency.P999),
					maxP999Inflate*100, metrics.FormatDuration(p999Floor)))
			}
			if c.Errors > b.Errors {
				d.Violations = append(d.Violations, fmt.Sprintf(
					"errors grew: %d -> %d", b.Errors, c.Errors))
			}
		}
		for _, v := range d.Violations {
			violations = append(violations, d.Key+": "+v)
		}
		deltas = append(deltas, d)
	}
	if maxEPSDrop > 0 && base.SimPerf != nil && cur.SimPerf != nil &&
		base.SimPerf.EventsPerSec > 0 &&
		cur.SimPerf.EventsPerSec < base.SimPerf.EventsPerSec*(1-maxEPSDrop) {
		violations = append(violations, fmt.Sprintf(
			"sim-perf: events/sec regressed %.1f%%: %.0f -> %.0f (gate %.0f%%)",
			(1-cur.SimPerf.EventsPerSec/base.SimPerf.EventsPerSec)*100,
			base.SimPerf.EventsPerSec, cur.SimPerf.EventsPerSec,
			maxEPSDrop*100))
	}
	return deltas, violations
}

// ComparisonTable renders the matched runs as a paper-style table.
func ComparisonTable(deltas []RunDelta) *metrics.Table {
	tbl := metrics.NewTable("run report comparison (baseline vs current)",
		"run", "throughput", "Δ%", "p999", "Δ%", "errors", "verdict")
	for _, d := range deltas {
		verdict := "ok"
		if len(d.Violations) > 0 {
			verdict = "FAIL"
		}
		tbl.AddRow(d.Key,
			fmt.Sprintf("%s -> %s", metrics.FormatGbps(d.Base.ThroughputBps),
				metrics.FormatGbps(d.Cur.ThroughputBps)),
			pctDelta(d.ThroughputRatio()),
			fmt.Sprintf("%s -> %s", metrics.FormatDuration(d.Base.Latency.P999),
				metrics.FormatDuration(d.Cur.Latency.P999)),
			pctDelta(d.P999Ratio()),
			fmt.Sprintf("%d -> %d", d.Base.Errors, d.Cur.Errors),
			verdict)
	}
	return tbl
}

// pctDelta renders a cur/base ratio as a signed percentage.
func pctDelta(ratio float64) string {
	if ratio == 0 { // exact zero is the "no baseline" sentinel, never computed
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (ratio-1)*100)
}
