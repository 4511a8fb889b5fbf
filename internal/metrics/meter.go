package metrics

import "fmt"

// Meter accumulates a monotone quantity (bytes, requests) and reports
// rates over explicit windows in virtual time.
type Meter struct {
	total  float64
	mark   float64
	markAt float64
}

// NewMeter creates a meter with its window opened at time t.
func NewMeter(t float64) *Meter {
	return &Meter{markAt: t}
}

// Add accumulates an amount.
func (m *Meter) Add(v float64) { m.total += v }

// Total returns the lifetime accumulated amount.
func (m *Meter) Total() float64 { return m.total }

// MarkWindow closes the current window at time t and opens a new one,
// returning the average rate (amount/second) over the closed window.
//
// A zero-width window — two marks at the same sim instant, which the
// telemetry sampler can legitimately produce when a sample tick
// coincides with a window boundary — returns 0 and leaves the window
// open (the mark does not move), so the accumulated amount is counted
// in the next real window instead of vanishing and no Inf/NaN rate can
// ever poison an exported series. Marks in the past are likewise
// no-ops: the window never moves backwards.
func (m *Meter) MarkWindow(t float64) float64 {
	dt := t - m.markAt
	if dt <= 0 {
		return 0
	}
	rate := (m.total - m.mark) / dt
	m.mark = m.total
	m.markAt = t
	return rate
}

// Byte-rate formatting helpers. The paper reports Gbps (decimal giga),
// so 1 Gbps = 1e9 bits/s.

// BytesPerSecToGbps converts a byte rate into decimal gigabits/second.
func BytesPerSecToGbps(bps float64) float64 { return bps * 8 / 1e9 }

// GbpsToBytesPerSec converts decimal gigabits/second into bytes/second.
func GbpsToBytesPerSec(gbps float64) float64 { return gbps * 1e9 / 8 }

// FormatGbps renders a byte rate as Gbps text.
func FormatGbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f Gbps", BytesPerSecToGbps(bytesPerSec))
}

// FormatDuration renders seconds using the most readable unit.
func FormatDuration(sec float64) string {
	switch {
	case sec == 0: //detcheck:floateq exact zero prints "0"; any computed nonzero falls through to a unit
		return "0"
	case sec < 1e-6:
		return fmt.Sprintf("%.0f ns", sec*1e9)
	case sec < 1e-3:
		return fmt.Sprintf("%.2f us", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.3f ms", sec*1e3)
	default:
		return fmt.Sprintf("%.3f s", sec)
	}
}

// FormatBytes renders a byte count with binary units.
func FormatBytes(b float64) string {
	const (
		kib = 1024
		mib = 1024 * kib
		gib = 1024 * mib
	)
	switch {
	case b >= gib:
		return fmt.Sprintf("%.2f GiB", b/gib)
	case b >= mib:
		return fmt.Sprintf("%.2f MiB", b/mib)
	case b >= kib:
		return fmt.Sprintf("%.2f KiB", b/kib)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
