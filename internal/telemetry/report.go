package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/sim"
)

// ReportSchema identifies the run-report JSON layout.
const ReportSchema = "smartds-run-report/v1"

// LatencySummary is the client-observed latency digest of one run.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_sec"`
	P50   float64 `json:"p50_sec"`
	P99   float64 `json:"p99_sec"`
	P999  float64 `json:"p999_sec"`
	Max   float64 `json:"max_sec"`
}

// SummarizeLatency converts a metrics.Summary.
func SummarizeLatency(s metrics.Summary) LatencySummary {
	return LatencySummary{Count: s.Count, Mean: s.Mean, P50: s.P50,
		P99: s.P99, P999: s.P999, Max: s.Max}
}

// TTR is one fault event's recovery time (negative: never recovered).
type TTR struct {
	Kind          string  `json:"kind"`
	Target        string  `json:"target"`
	Start         float64 `json:"start_sec"`
	TimeToRecover float64 `json:"ttr_sec"`
}

// FaultSummary carries the recovery metrics of a fault campaign into
// the run report (mirrors faults.Stats without importing it).
type FaultSummary struct {
	BaselineP99    float64 `json:"baseline_p99_sec"`
	MaxGap         float64 `json:"max_gap_sec"`
	Unavailable    float64 `json:"unavailable_sec"`
	ElevatedWindow float64 `json:"elevated_window_sec"`
	Errors         int     `json:"errors"`
	Recoveries     []TTR   `json:"recoveries,omitempty"`
}

// Alert is one fired SLO alert in the run report (mirrors slo.Alert
// without importing it). Byte-deterministic: alerts fire on the
// sim-time sampling grid, so same-seed runs report identical lists.
type Alert struct {
	SLO       string  `json:"slo"`
	Kind      string  `json:"kind"`
	Severity  string  `json:"severity"`
	At        float64 `json:"at_sec"`
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	Detail    string  `json:"detail,omitempty"`
}

// CritpathSegment is one critical-path segment of an exemplar request.
type CritpathSegment struct {
	Stage string  `json:"stage"`
	Wait  bool    `json:"wait,omitempty"`
	Dur   float64 `json:"dur_sec"`
	Frac  float64 `json:"frac"`
}

// CritpathExemplar is one percentile exemplar request's full critical
// path: the segments tile its end-to-end latency exactly.
type CritpathExemplar struct {
	TraceID  string            `json:"trace_id"`
	E2E      float64           `json:"e2e_sec"`
	Segments []CritpathSegment `json:"segments"`
}

// CritpathStage is one stage's share of critical-path time across the
// run's sampled requests.
type CritpathStage struct {
	Stage    string  `json:"stage"`
	Wait     bool    `json:"wait,omitempty"`
	MeanFrac float64 `json:"mean_frac"`
	P99Frac  float64 `json:"p99_frac"`
	P999Frac float64 `json:"p999_frac"`
	MeanSec  float64 `json:"mean_sec"`
}

// CritpathSummary is the run's latency blame profile: per-stage
// critical-path attribution over every sampled request, with p99/p999
// exemplar drill-downs (mirrors critpath.Analysis without importing it).
type CritpathSummary struct {
	Requests int             `json:"requests"`
	Stages   []CritpathStage `json:"stages"`
	P99      *CritpathExemplar `json:"p99,omitempty"`
	P999     *CritpathExemplar `json:"p999,omitempty"`
}

// BlameTables renders the blame profile of every run that carries one,
// in run order: the fraction of client-observed latency attributed to
// every stage at the mean and at the tail exemplars, then the p999
// exemplar's segment list — the "why is p999 high?" answer in one
// screen. smartds-report -blame and the -breakdown flag of smartds-sim
// and smartds-bench all print through it.
func BlameTables(runs []*RunRecord) []*metrics.Table {
	var out []*metrics.Table
	for _, rr := range runs {
		cp := rr.Critpath
		if cp == nil {
			continue
		}
		tbl := metrics.NewTable(
			fmt.Sprintf("latency blame %s (%s, %d sampled requests)", rr.Key(), rr.Protocol, cp.Requests),
			"stage", "kind", "mean%", "p99%", "p999%", "mean")
		for _, st := range cp.Stages {
			tbl.AddRow(st.Stage, blameKind(st.Wait),
				pct(st.MeanFrac), pct(st.P99Frac), pct(st.P999Frac),
				metrics.FormatDuration(st.MeanSec))
		}
		out = append(out, tbl)
		if ex := cp.P999; ex != nil {
			etbl := metrics.NewTable(
				fmt.Sprintf("p999 exemplar %s (trace %s, e2e %s)", rr.Key(), ex.TraceID, metrics.FormatDuration(ex.E2E)),
				"segment", "kind", "dur", "share")
			for _, seg := range ex.Segments {
				etbl.AddRow(seg.Stage, blameKind(seg.Wait), metrics.FormatDuration(seg.Dur), pct(seg.Frac))
			}
			out = append(out, etbl)
		}
	}
	return out
}

// blameKind names a blame bucket's wait/service classification.
func blameKind(wait bool) string {
	if wait {
		return "wait"
	}
	return "service"
}

// pct renders a fraction as a percentage cell.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// RunRecord is one cluster.Run's machine-readable result. Matched
// across reports by (Experiment, Design, Seq).
type RunRecord struct {
	Experiment string `json:"experiment"`
	Design     string `json:"design"`
	Protocol   string `json:"protocol,omitempty"`
	Seq        int    `json:"seq"`
	Seed       uint64 `json:"seed"`

	Duration      float64 `json:"duration_sec"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	ThroughputBps float64 `json:"throughput_bytes_per_sec"`
	ReqPerSec     float64 `json:"req_per_sec"`

	// SimEvents counts calendar entries the simulator dispatched during
	// this run. It is a deterministic function of the seed (same-seed
	// runs report identical values), unlike the wall-clock SimPerf block.
	SimEvents uint64 `json:"sim_events"`

	Latency  LatencySummary     `json:"latency"`
	Counters map[string]float64 `json:"counters,omitempty"`
	Faults   *FaultSummary      `json:"faults,omitempty"`
	Alerts   []Alert            `json:"alerts,omitempty"`
	Critpath *CritpathSummary   `json:"critpath,omitempty"`
}

// Key is the cross-report matching identity of a run.
func (rr *RunRecord) Key() string {
	return rr.Experiment + "/" + rr.Design + "#" + strconv.Itoa(rr.Seq)
}

// RunScope binds one cluster run to the registry: instruments
// registered through it share the (exp, design, run) labels, get
// sampled together, and their finals land in the run's record.
type RunScope struct {
	reg     *Registry
	rec     *RunRecord
	labels  LabelSet
	metrics []*Metric
	short   map[*Metric]string

	// Label-budget state (see budget.go): per-name registration counts
	// and the overflow series absorbing over-budget registrations.
	perName  map[string]int
	overflow map[string]*Metric
}

// NewRun opens a scope for one cluster run. Seq is assigned per
// (experiment, design) in creation order, so same-seed executions
// produce identical keys.
func (r *Registry) NewRun(experiment, design string, seed uint64) *RunScope {
	if experiment == "" {
		experiment = "adhoc"
	}
	seqKey := experiment + "/" + design
	seq := r.runSeq[seqKey]
	r.runSeq[seqKey] = seq + 1
	rec := &RunRecord{Experiment: experiment, Design: design, Seq: seq, Seed: seed}
	r.runs = append(r.runs, rec)
	return &RunScope{
		reg: r,
		rec: rec,
		labels: MakeLabels(map[string]string{
			"exp": experiment, "design": design, "run": strconv.Itoa(seq),
		}),
		short: make(map[*Metric]string),
	}
}

// Record returns the scope's run record.
func (sc *RunScope) Record() *RunRecord { return sc.rec }

// SetProtocol stamps the run with the replication protocol it used:
// the record carries it for report readers, and every instrument
// registered afterwards gains a "protocol" label so per-protocol runs
// of the same experiment/design stay distinguishable in metric dumps.
// Call before registering instruments.
func (sc *RunScope) SetProtocol(p string) {
	if p == "" {
		return
	}
	sc.rec.Protocol = p
	sc.labels = sc.mergeLabels(map[string]string{"protocol": p})
}

// scoped merges extra dimensions into the scope labels and remembers
// the metric plus its short (scope-independent) counter key.
func (sc *RunScope) scoped(m *Metric, name string, extra map[string]string) *Metric {
	sc.metrics = append(sc.metrics, m)
	sc.short[m] = name + MakeLabels(extra).String()
	return m
}

func (sc *RunScope) mergeLabels(extra map[string]string) LabelSet {
	ls := sc.labels
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ls = ls.With(k, extra[k])
	}
	return ls
}

// CounterFunc registers a pull counter under the scope's labels. Past
// the registry's label budget the callback folds into the scope's
// overflow series instead (its value is the sum of every fold).
func (sc *RunScope) CounterFunc(name, help string, extra map[string]string, fn func() float64) *Metric {
	if sc.overBudget(name) {
		m := sc.overflowFor(name, help, KindCounter)
		m.reads = append(m.reads, fn)
		m.folded++
		return m
	}
	return sc.scoped(sc.reg.CounterFunc(name, help, sc.mergeLabels(extra), fn), name, extra)
}

// GaugeFunc registers a pull gauge under the scope's labels (folding
// past the label budget like CounterFunc).
func (sc *RunScope) GaugeFunc(name, help string, extra map[string]string, fn func() float64) *Metric {
	if sc.overBudget(name) {
		m := sc.overflowFor(name, help, KindGauge)
		m.reads = append(m.reads, fn)
		m.folded++
		return m
	}
	return sc.scoped(sc.reg.GaugeFunc(name, help, sc.mergeLabels(extra), fn), name, extra)
}

// Histogram registers a histogram under the scope's labels. Past the
// label budget the histogram folds into the overflow series, whose
// exported buckets are the merge of every folded source.
func (sc *RunScope) Histogram(name, help string, extra map[string]string, h *metrics.Histogram) *Metric {
	if sc.overBudget(name) {
		m := sc.overflowFor(name, help, KindHistogram)
		m.srcHists = append(m.srcHists, h)
		m.folded++
		return m
	}
	return sc.scoped(sc.reg.Histogram(name, help, sc.mergeLabels(extra), h), name, extra)
}

// StartSampling begins ring-buffered time-series recording of every
// scope counter/gauge on the registry's sim-clock cadence until stop.
func (sc *RunScope) StartSampling(env *sim.Env, stop float64) *Sampler {
	s := sc.reg.NewSampler(env, sc.metrics)
	s.Run(stop)
	return s
}

// RecordResults fills the run record with the measured outcome and
// snapshots every scope counter/gauge final under its short key.
func (sc *RunScope) RecordResults(duration float64, requests, errors uint64,
	throughputBps, reqPerSec float64, lat metrics.Summary) {
	sc.rec.Duration = duration
	sc.rec.Requests = requests
	sc.rec.Errors = errors
	sc.rec.ThroughputBps = throughputBps
	sc.rec.ReqPerSec = reqPerSec
	sc.rec.Latency = SummarizeLatency(lat)
	finals := make(map[string]float64, len(sc.metrics))
	for _, m := range sc.metrics {
		if m.kind == KindHistogram {
			continue
		}
		finals[sc.short[m]] = m.Value()
	}
	sc.rec.Counters = finals
}

// RecordFaults attaches a fault campaign's recovery summary.
func (sc *RunScope) RecordFaults(fs FaultSummary) { sc.rec.Faults = &fs }

// RecordCritpath attaches the run's latency blame profile.
func (sc *RunScope) RecordCritpath(cs CritpathSummary) { sc.rec.Critpath = &cs }

// RecordAlerts attaches the SLO engine's fired alerts (already in
// deterministic fire order).
func (sc *RunScope) RecordAlerts(alerts []Alert) { sc.rec.Alerts = alerts }

// RecordSimEvents attaches the simulator's dispatched-event count for
// this run (callers diff Env.Events() across the run).
func (sc *RunScope) RecordSimEvents(n uint64) { sc.rec.SimEvents = n }

// MetricFinal is one metric's end-of-run value in the report.
type MetricFinal struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  float64           `json:"value"`
}

// SeriesEntry is one sampled series' digest in the report.
type SeriesEntry struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Digest Digest            `json:"digest"`
}

// ExemplarEntry is one histogram bucket's exemplar in the report: the
// link from a latency bucket to a kept (head-sampled) trace ID.
type ExemplarEntry struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Le      string            `json:"le"`
	Value   float64           `json:"value"`
	TraceID string            `json:"trace_id"`
	At      float64           `json:"at_sec"`
}

// SimPerf is the wall-clock performance of the simulator itself over
// one harness invocation. It is measured, not simulated — two same-seed
// runs report different SimPerf — so BuildReport never fills it; only
// the top-level command attaches it after the deterministic report is
// assembled (the determinism golden tests compare reports byte-for-byte
// before that point).
type SimPerf struct {
	Events         uint64  `json:"events"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// Report is the machine-readable record of one harness invocation:
// what ran, with which knobs, and every number the run produced.
type Report struct {
	Schema    string            `json:"schema"`
	Name      string            `json:"name"`
	Seed      uint64            `json:"seed"`
	Quick     bool              `json:"quick"`
	Config    map[string]string `json:"config,omitempty"`
	Runs      []*RunRecord      `json:"runs"`
	Finals    []MetricFinal     `json:"counters"`
	Series    []SeriesEntry     `json:"series,omitempty"`
	Exemplars []ExemplarEntry   `json:"exemplars,omitempty"`
	SimPerf   *SimPerf          `json:"sim_perf,omitempty"`
}

// BuildReport assembles the report from everything the registry has
// seen. Metric order is canonical (sorted by name then labels).
func (r *Registry) BuildReport(name string, seed uint64, quick bool, config map[string]string) *Report {
	rep := &Report{
		Schema: ReportSchema,
		Name:   name,
		Seed:   seed,
		Quick:  quick,
		Config: config,
		Runs:   r.runs,
	}
	for _, m := range r.Metrics() {
		if m.kind != KindHistogram {
			rep.Finals = append(rep.Finals, MetricFinal{
				Name: m.name, Labels: m.labels.Map(), Kind: m.kind.String(), Value: m.Value(),
			})
		}
		if m.series != nil {
			rep.Series = append(rep.Series, SeriesEntry{
				Name: m.name, Labels: m.labels.Map(), Digest: m.series.Digest(),
			})
		}
		for _, le := range m.ExemplarBounds() {
			ex, _ := m.ExemplarFor(le)
			rep.Exemplars = append(rep.Exemplars, ExemplarEntry{
				Name: m.name, Labels: m.labels.Map(), Le: omLe(le),
				Value: ex.Value, TraceID: FormatTraceID(ex.TraceID), At: ex.At,
			})
		}
	}
	return rep
}

// WriteReport encodes the report as stable, indented JSON.
func WriteReport(w io.Writer, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encode report: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadReport parses a report and validates its schema tag.
func ReadReport(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("telemetry: decode report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("telemetry: unexpected report schema %q (want %q)", rep.Schema, ReportSchema)
	}
	return &rep, nil
}

// LoadReport reads a report file.
func LoadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
