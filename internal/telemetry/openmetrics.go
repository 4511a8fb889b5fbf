package telemetry

import (
	"io"
	"math"
	"strconv"
)

// WriteOpenMetrics exports a point-in-time snapshot of every
// registered metric in the OpenMetrics / Prometheus text exposition
// format. Output is deterministic: metric families appear sorted by
// name, series sorted by label set, and histogram buckets in ascending
// le order (only boundaries where the cumulative count changes are
// emitted, plus the mandatory +Inf bucket).
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	ew := &omWriter{w: w}
	prevFamily := ""
	for _, m := range r.Metrics() {
		if m.name != prevFamily {
			prevFamily = m.name
			if m.help != "" {
				ew.line("# HELP " + m.name + " " + m.help)
			}
			ew.line("# TYPE " + m.name + " " + m.kind.String())
		}
		switch m.kind {
		case KindHistogram:
			ew.histogram(m)
		default:
			ew.sample(m.name, m.labels, m.Value())
		}
	}
	ew.line("# EOF")
	return ew.err
}

// omWriter folds write errors so the exporter stays linear.
type omWriter struct {
	w   io.Writer
	err error
}

func (ew *omWriter) line(s string) {
	if ew.err != nil {
		return
	}
	_, ew.err = io.WriteString(ew.w, s+"\n")
}

func (ew *omWriter) sample(name string, labels LabelSet, v float64) {
	ew.line(name + labels.String() + " " + omFloat(v))
}

// histogram emits the cumulative _bucket/_sum/_count triplet.
func (ew *omWriter) histogram(m *Metric) {
	h := m.hist
	prev := uint64(0)
	first := true
	for _, b := range h.Buckets() {
		// Skip interior boundaries that add no information; the first
		// bucket and +Inf always appear so the family is well formed.
		if !first && !math.IsInf(b.UpperBound, 1) && b.Count == prev {
			continue
		}
		first = false
		prev = b.Count
		ew.sample(m.name+"_bucket", m.labels.With("le", omFloat(b.UpperBound)), float64(b.Count))
	}
	ew.sample(m.name+"_sum", m.labels, h.Sum())
	ew.sample(m.name+"_count", m.labels, float64(h.Count()))
}

// omFloat renders a value in the shortest round-trip decimal form.
func omFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
