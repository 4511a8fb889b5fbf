package telemetry

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/sim"
)

func TestLabelSetCanonical(t *testing.T) {
	ls := MakeLabels(map[string]string{"b": "2", "a": "1", "c": "3"})
	if got := ls.String(); got != `{a="1",b="2",c="3"}` {
		t.Fatalf("labels = %s", got)
	}
	with := ls.With("ab", "x")
	if got := with.String(); got != `{a="1",ab="x",b="2",c="3"}` {
		t.Fatalf("With = %s", got)
	}
	if got := ls.String(); got != `{a="1",b="2",c="3"}` {
		t.Fatalf("With mutated receiver: %s", got)
	}
	esc := MakeLabels(map[string]string{"p": "a\"b\\c\nd"})
	if got := esc.String(); got != `{p="a\"b\\c\nd"}` {
		t.Fatalf("escaping = %s", got)
	}
	if LabelSet(nil).String() != "" {
		t.Fatalf("empty set must render empty")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	reqs := 3.0
	c := r.CounterFunc("reqs_total", "requests", nil, func() float64 { return reqs })
	reqs += 2
	if c.Value() != 5 {
		t.Fatalf("counter = %g", c.Value())
	}
	depth := 7.0
	g := r.GaugeFunc("depth", "queue depth", MakeLabels(map[string]string{"port": "0"}), func() float64 { return depth })
	if g.Value() != 7 {
		t.Fatalf("gauge = %g", g.Value())
	}
	x := 0.0
	r.GaugeFunc("pull", "pull gauge", nil, func() float64 { return x })
	x = 42
	if m := r.Lookup("pull", nil); m == nil || m.Value() != 42 {
		t.Fatalf("pull gauge lookup/value failed")
	}

	// Canonical ordering: sorted by name then labels.
	names := make([]string, 0)
	for _, m := range r.Metrics() {
		names = append(names, m.key())
	}
	want := []string{"depth{port=\"0\"}", "pull", "reqs_total"}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("order[%d] = %s, want %s", i, names[i], w)
		}
	}

	// Duplicate registration and a nil histogram panic.
	mustPanic(t, func() { r.CounterFunc("reqs_total", "", nil, func() float64 { return 0 }) })
	mustPanic(t, func() {
		r.GaugeFunc("depth", "", MakeLabels(map[string]string{"port": "0"}), func() float64 { return 0 })
	})
	mustPanic(t, func() { r.Histogram("h", "", nil, nil) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	fn()
}

func TestSeriesRing(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 6; i++ {
		s.Append(float64(i), float64(i*10))
	}
	if s.Len() != 4 || s.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", s.Len(), s.Dropped())
	}
	pts := s.Points()
	for i, p := range pts {
		if p.At != float64(i+2) {
			t.Fatalf("point %d at %g, want %g (chronological unwrap)", i, p.At, float64(i+2))
		}
	}
	d := s.Digest()
	if d.Points != 4 || d.First != 20 || d.Last != 50 || d.Min != 20 || d.Max != 50 || d.Mean != 35 {
		t.Fatalf("digest = %+v", d)
	}
}

func TestSamplerVirtualTimeGrid(t *testing.T) {
	env := sim.NewEnv()
	r := NewRegistry()
	r.SampleInterval = 1e-3
	val := 0.0
	g := r.GaugeFunc("load", "", nil, func() float64 { return val })
	h := r.Histogram("lat", "", nil, metrics.NewLatencyHistogram())
	s := r.NewSampler(env, []*Metric{g, h})
	env.After(2.5e-3, func() { val = 9 })
	s.Run(5e-3)
	env.Run(1)
	if s.Samples() != 5 {
		t.Fatalf("samples = %d, want 5", s.Samples())
	}
	pts := g.Series().Points()
	if len(pts) != 5 {
		t.Fatalf("series len = %d", len(pts))
	}
	if pts[0].At != 1e-3 || pts[4].At != 5e-3 {
		t.Fatalf("grid = %g..%g", pts[0].At, pts[4].At)
	}
	if pts[1].Value != 0 || pts[2].Value != 9 {
		t.Fatalf("sample values = %g, %g; want 0 then 9", pts[1].Value, pts[2].Value)
	}
	if h.Series() != nil {
		t.Fatalf("histograms must not be sampled")
	}
}

func TestOpenMetricsSnapshot(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("smartds_requests_total", "Completed requests.", MakeLabels(map[string]string{"design": "SmartDS-1"}), func() float64 { return 12 })
	h := metrics.NewLatencyHistogram()
	h.Record(5e-6)
	h.Record(5e-6)
	h.Record(2e-3)
	r.Histogram("smartds_latency_seconds", "Client latency.", nil, h)

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP smartds_requests_total Completed requests.\n",
		"# TYPE smartds_requests_total counter\n",
		"smartds_requests_total{design=\"SmartDS-1\"} 12\n",
		"# TYPE smartds_latency_seconds histogram\n",
		"smartds_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"smartds_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %q in:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing EOF terminator")
	}

	// Bucket lines: cumulative counts must be monotone and end at 3; the
	// compaction must keep first and +Inf buckets.
	prev := -1.0
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "smartds_latency_seconds_bucket") {
			continue
		}
		buckets++
		f := line[strings.LastIndex(line, " ")+1:]
		v, err := parseFloat(f)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < prev {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		prev = v
	}
	if buckets < 3 {
		t.Fatalf("expected >=3 bucket lines, got %d", buckets)
	}
	if prev != 3 {
		t.Fatalf("last bucket = %g, want 3", prev)
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteOpenMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("repeated export differs")
	}
}

func parseFloat(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func TestRunScopeReport(t *testing.T) {
	env := sim.NewEnv()
	r := NewRegistry()
	r.SampleInterval = 1e-3

	sc := r.NewRun("peak", "SmartDS-1", 42)
	done := 0.0
	sc.CounterFunc("smartds_requests_total", "", nil, func() float64 { return done })
	h := metrics.NewLatencyHistogram()
	sc.Histogram("smartds_latency_seconds", "", nil, h)
	sc.StartSampling(env, 5e-3)
	env.After(2e-3, func() { done = 100; h.Record(10e-6) })
	env.Run(1)

	sc.RecordResults(5e-3, 100, 0, 2e9, 20000, h.Summarize())
	sc.RecordFaults(FaultSummary{MaxGap: 1e-3, Recoveries: []TTR{{Kind: "kill", Target: "s0", Start: 1e-3, TimeToRecover: 2e-3}}})

	sc2 := r.NewRun("peak", "SmartDS-1", 42)
	if sc2.Record().Seq != 1 {
		t.Fatalf("second run seq = %d, want 1", sc2.Record().Seq)
	}
	if sc.Record().Key() != "peak/SmartDS-1#0" {
		t.Fatalf("key = %s", sc.Record().Key())
	}

	rep := r.BuildReport("bench", 42, true, map[string]string{"exp": "peak"})
	if len(rep.Runs) != 2 || rep.Runs[0].Requests != 100 {
		t.Fatalf("runs = %+v", rep.Runs)
	}
	if rep.Runs[0].Counters["smartds_requests_total"] != 100 {
		t.Fatalf("counter final = %v", rep.Runs[0].Counters)
	}
	if rep.Runs[0].Faults == nil || rep.Runs[0].Faults.MaxGap != 1e-3 {
		t.Fatalf("faults = %+v", rep.Runs[0].Faults)
	}
	if len(rep.Series) != 1 || rep.Series[0].Digest.Points != 5 {
		t.Fatalf("series = %+v", rep.Series)
	}

	// Round trip: write → read → byte-identical re-write.
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteReport(&buf2, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("report round trip not byte-stable")
	}

	// Bad schema must be rejected.
	if _, err := ReadReport(strings.NewReader(`{"schema":"bogus"}`)); err == nil {
		t.Fatalf("bogus schema accepted")
	}
}

func TestSeriesExports(t *testing.T) {
	env := sim.NewEnv()
	r := NewRegistry()
	r.SampleInterval = 1e-3
	sc := r.NewRun("peak", "CPU-only", 1)
	v := 0.0
	sc.GaugeFunc("smartds_port_rate", "", map[string]string{"port": "0"}, func() float64 { v += 1; return v })
	sc.StartSampling(env, 3e-3)
	env.Run(1)

	var csv bytes.Buffer
	if err := r.WriteSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if lines[0] != "metric,labels,t_sec,value" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("csv rows = %d, want 3+header:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[1], "smartds_port_rate,\"{") {
		t.Fatalf("csv row = %q", lines[1])
	}

	var js bytes.Buffer
	if err := r.WriteSeriesJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"name": "smartds_port_rate"`) {
		t.Fatalf("json dump missing series name:\n%s", js.String())
	}
}

func TestCompareGate(t *testing.T) {
	mkReport := func(tput, p999 float64, errs uint64) *Report {
		return &Report{
			Schema: ReportSchema,
			Runs: []*RunRecord{{
				Experiment: "peak", Design: "SmartDS-1", Seq: 0,
				Requests: 1000, Errors: errs, ThroughputBps: tput,
				Latency: LatencySummary{Count: 1000, P999: p999},
			}},
		}
	}
	g := DefaultGate()

	// Identical reports pass.
	base := mkReport(10e9, 100e-6, 0)
	deltas, viol := Compare(base, mkReport(10e9, 100e-6, 0), g)
	if len(viol) != 0 || len(deltas) != 1 {
		t.Fatalf("self-compare: viol=%v", viol)
	}

	// 10% throughput drop fails the 5% gate.
	_, viol = Compare(base, mkReport(9e9, 100e-6, 0), g)
	if len(viol) == 0 {
		t.Fatalf("10%% drop passed the gate")
	}

	// 4% drop passes.
	_, viol = Compare(base, mkReport(9.6e9, 100e-6, 0), g)
	if len(viol) != 0 {
		t.Fatalf("4%% drop failed: %v", viol)
	}

	// p999 inflation above floor fails; below floor is ignored.
	_, viol = Compare(base, mkReport(10e9, 200e-6, 0), g)
	if len(viol) == 0 {
		t.Fatalf("2x p999 inflation passed")
	}
	tiny := mkReport(10e9, 5e-6, 0)
	_, viol = Compare(tiny, mkReport(10e9, 9e-6, 0), g)
	if len(viol) != 0 {
		t.Fatalf("sub-floor p999 noise failed: %v", viol)
	}

	// New errors fail.
	_, viol = Compare(base, mkReport(10e9, 100e-6, 3), g)
	if len(viol) == 0 {
		t.Fatalf("error growth passed")
	}

	// Missing run fails.
	_, viol = Compare(base, &Report{Schema: ReportSchema}, g)
	if len(viol) == 0 {
		t.Fatalf("vanished run passed")
	}

	// Table renders every matched run.
	deltas, _ = Compare(base, mkReport(9e9, 100e-6, 0), g)
	if out := ComparisonTable(deltas).String(); !strings.Contains(out, "FAIL") {
		t.Fatalf("table missing verdict:\n%s", out)
	}
}
