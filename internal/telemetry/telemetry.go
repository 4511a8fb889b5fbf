// Package telemetry is the unified measurement surface of the
// simulator: a central registry of labeled counters, gauges, and
// histograms (wrapping the primitives of internal/metrics), a sim-time
// sampler that records ring-buffered time series on a configurable
// virtual-clock interval, and three exporters — an OpenMetrics text
// snapshot, CSV/JSON time-series dumps, and a machine-readable run
// report (report.json) that cmd/smartds-report diffs across builds as
// the perf regression gate.
//
// Everything is driven by virtual time and iterated in sorted order,
// so same-seed runs produce byte-identical artifacts (the golden
// determinism tests pin this).
package telemetry

import (
	"fmt"
	"sort"

	"github.com/disagg/smartds/internal/metrics"
)

// Kind classifies a registered metric.
type Kind int

// The three metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Label is one key=value metric dimension.
type Label struct {
	Key, Value string
}

// LabelSet is a sorted list of labels. Build with MakeLabels so the
// order (and therefore every exported artifact) is canonical.
type LabelSet []Label

// MakeLabels builds a canonical (key-sorted) label set from a map.
func MakeLabels(m map[string]string) LabelSet {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ls := make(LabelSet, 0, len(keys))
	for _, k := range keys {
		ls = append(ls, Label{Key: k, Value: m[k]})
	}
	return ls
}

// With returns a copy of the set with one label added (re-sorted).
func (ls LabelSet) With(key, value string) LabelSet {
	out := make(LabelSet, 0, len(ls)+1)
	out = append(out, ls...)
	out = append(out, Label{Key: key, Value: value})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// String renders the set in OpenMetrics brace syntax ("" when empty).
func (ls LabelSet) String() string {
	if len(ls) == 0 {
		return ""
	}
	s := "{"
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += l.Key + "=" + quote(l.Value)
	}
	return s + "}"
}

// Map returns the labels as a plain map (report JSON encoding; Go's
// encoding/json writes map keys in sorted order, keeping it canonical).
func (ls LabelSet) Map() map[string]string {
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Metric is one registered instrument. Counters and gauges read a pull
// callback at sample and export time (a roll-up holds its summed
// value); histograms wrap a metrics.Histogram.
type Metric struct {
	name   string
	help   string
	kind   Kind
	labels LabelSet

	value float64
	read  func() float64
	hist  *metrics.Histogram

	series *Series

	// Exemplars: bucket boundary → latest exemplar (histograms only).
	exemplars map[float64]Exemplar

	// Overflow series state (see budget.go): the pull callbacks and
	// source histograms of every registration folded past the budget.
	reads    []func() float64
	srcHists []*metrics.Histogram
	folded   int
}

// Name returns the metric name.
func (m *Metric) Name() string { return m.name }

// Kind returns the metric kind.
func (m *Metric) Kind() Kind { return m.kind }

// Value reads the metric's current scalar value (histograms report
// their sample count).
func (m *Metric) Value() float64 {
	if m.hist != nil {
		return float64(m.hist.Count())
	}
	if m.read != nil {
		return m.read()
	}
	return m.value
}

// Series returns the metric's recorded time series (nil when the
// metric was never sampled).
func (m *Metric) Series() *Series { return m.series }

// key uniquely identifies a metric inside a registry.
func (m *Metric) key() string { return m.name + m.labels.String() }

// Registry is the central metric table. It is not safe for concurrent
// use; the simulator is single-threaded by construction.
type Registry struct {
	metrics []*Metric
	index   map[string]*Metric

	// SeriesCap bounds each sampled series ring (default 4096 points).
	SeriesCap int
	// SampleInterval is the sim-clock sampling cadence used by run
	// scopes (default 100 µs of virtual time).
	SampleInterval float64
	// LabelBudget bounds the distinct series a run scope may register
	// per metric name; registrations past the budget fold into one
	// overflow="other" series (0 = unlimited; see budget.go).
	LabelBudget int

	rollups []rollupRule

	runs   []*RunRecord
	runSeq map[string]int
}

// NewRegistry returns an empty registry with default sampling knobs.
func NewRegistry() *Registry {
	return &Registry{
		index:          make(map[string]*Metric),
		SeriesCap:      4096,
		SampleInterval: 100e-6,
		runSeq:         make(map[string]int),
	}
}

// register adds a metric, panicking on duplicate (name, labels): two
// instruments writing the same series is always a wiring bug.
func (r *Registry) register(m *Metric) *Metric {
	k := m.key()
	if _, dup := r.index[k]; dup {
		panic("telemetry: duplicate metric " + k)
	}
	r.index[k] = m
	r.metrics = append(r.metrics, m)
	return m
}

// CounterFunc registers a pull counter whose value is read from fn at
// sample and export time. fn must be monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, labels LabelSet, fn func() float64) *Metric {
	return r.register(&Metric{name: name, help: help, kind: KindCounter, labels: labels, read: fn})
}

// GaugeFunc registers a pull gauge read from fn.
func (r *Registry) GaugeFunc(name, help string, labels LabelSet, fn func() float64) *Metric {
	return r.register(&Metric{name: name, help: help, kind: KindGauge, labels: labels, read: fn})
}

// Histogram registers an existing metrics.Histogram under a name.
func (r *Registry) Histogram(name, help string, labels LabelSet, h *metrics.Histogram) *Metric {
	if h == nil {
		panic("telemetry: nil histogram registered as " + name)
	}
	return r.register(&Metric{name: name, help: help, kind: KindHistogram, labels: labels, hist: h})
}

// Lookup returns the metric registered under (name, labels), or nil.
func (r *Registry) Lookup(name string, labels LabelSet) *Metric {
	return r.index[name+labels.String()]
}

// Metrics returns every registered metric plus the materialized
// roll-up families, sorted by (name, labels) — the canonical export
// order.
func (r *Registry) Metrics() []*Metric {
	out := append([]*Metric(nil), r.metrics...)
	out = append(out, r.materializeRollups()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels.String() < out[j].labels.String()
	})
	return out
}

// Runs returns the recorded run records in creation order.
func (r *Registry) Runs() []*RunRecord { return r.runs }

// quote escapes a label value for OpenMetrics / table output.
func quote(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			out = append(out, '\\', c)
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(append(out, '"'))
}
