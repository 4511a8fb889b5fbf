// Package telemetry is the unified measurement surface of the
// simulator: a central registry of labeled pull instruments, a
// sim-time sampler that records ring-buffered time series on a
// configurable virtual-clock interval, and two artifacts — the
// machine-readable run report (report.json), whose run records carry
// every instrument's final value and which cmd/smartds-report diffs
// across builds as the perf regression gate, and the series JSON file
// with every sampled point.
//
// Everything is driven by virtual time and iterated in sorted order,
// so same-seed runs produce byte-identical artifacts (the golden
// determinism tests pin this).
package telemetry

import "sort"

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

// String renders the set in brace syntax, `{k="v",...}` ("" when
// empty): the label half of a run record's counter keys.
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

// Metric is one registered instrument: a pull callback read at sample
// and record time. A name ending in _total marks a counter, whose
// value must never decrease; any other name is a gauge.
type Metric struct {
	name   string
	labels LabelSet
	read   func() float64
	series *Series
}

// Name returns the metric name.
func (m *Metric) Name() string { return m.name }

// Value reads the metric's current value.
func (m *Metric) Value() float64 { return m.read() }

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

	runs   []*RunRecord
	runSeq map[string]int
}

// seriesCap bounds each sampled series ring, in points.
const seriesCap = 4096

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		index:  make(map[string]*Metric),
		runSeq: make(map[string]int),
	}
}

// Register adds an instrument whose value is read from fn at sample
// and record time; a _total name promises fn never decreases. It
// panics on a duplicate (name, labels): two instruments writing the
// same series is always a wiring bug.
func (r *Registry) Register(name string, labels LabelSet, fn func() float64) *Metric {
	m := &Metric{name: name, labels: labels, read: fn}
	k := m.key()
	if _, dup := r.index[k]; dup {
		panic("telemetry: duplicate metric " + k)
	}
	r.index[k] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Metrics returns every registered metric sorted by (name, labels) —
// the canonical export order.
func (r *Registry) Metrics() []*Metric {
	out := append([]*Metric(nil), r.metrics...)
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

// quote escapes a label value for a counter key.
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
