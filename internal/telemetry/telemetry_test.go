package telemetry

import (
	"bytes"
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
	c := r.Register("reqs_total", nil, func() float64 { return reqs })
	reqs += 2
	if c.Value() != 5 {
		t.Fatalf("counter = %g", c.Value())
	}
	depth := 7.0
	g := r.Register("depth", MakeLabels(map[string]string{"port": "0"}), func() float64 { return depth })
	if g.Value() != 7 {
		t.Fatalf("gauge = %g", g.Value())
	}
	x := 0.0
	pull := r.Register("pull", nil, func() float64 { return x })
	x = 42
	if pull.Value() != 42 {
		t.Fatalf("pull gauge = %g", pull.Value())
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

	// Duplicate registration panics.
	mustPanic(t, func() { r.Register("reqs_total", nil, func() float64 { return 0 }) })
	mustPanic(t, func() {
		r.Register("depth", MakeLabels(map[string]string{"port": "0"}), func() float64 { return 0 })
	})
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
	val := 0.0
	g := r.Register("load", nil, func() float64 { return val })
	s := r.NewSampler(env, []*Metric{g})
	env.After(0.25e-3, func() { val = 9 })
	s.Run(0.5e-3)
	env.Run(1)
	if s.Samples() != 5 {
		t.Fatalf("samples = %d, want 5", s.Samples())
	}
	pts := g.Series().Points()
	if len(pts) != 5 {
		t.Fatalf("series len = %d", len(pts))
	}
	if pts[0].At != 0.1e-3 || pts[4].At != 0.5e-3 {
		t.Fatalf("grid = %g..%g", pts[0].At, pts[4].At)
	}
	if pts[1].Value != 0 || pts[2].Value != 9 {
		t.Fatalf("sample values = %g, %g; want 0 then 9", pts[1].Value, pts[2].Value)
	}
}

func TestRunScopeReport(t *testing.T) {
	env := sim.NewEnv()
	r := NewRegistry()

	sc := r.NewRun("peak", "SmartDS-1", 42)
	done := 0.0
	sc.Register("smartds_requests_total", nil, func() float64 { return done })
	h := metrics.NewLatencyHistogram()
	sc.StartSampling(env, 0.5e-3)
	env.After(0.2e-3, func() { done = 100; h.Record(10e-6) })
	env.Run(1)

	sc.RecordResults(0.5e-3, 100, 0, 2e9, 20000, h.Summarize())
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
	var js bytes.Buffer
	if err := r.WriteSeriesJSON(&js); err != nil {
		t.Fatal(err)
	}
	if series, err := ReadSeriesJSON(&js); err != nil || len(series) != 1 || series[0].Digest.Points != 5 {
		t.Fatalf("series = %+v (%v)", series, err)
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
	sc := r.NewRun("peak", "CPU-only", 1)
	v := 0.0
	sc.Register("smartds_port_rate", map[string]string{"port": "0"}, func() float64 { v += 1; return v })
	sc.StartSampling(env, 0.35e-3) // three grid ticks; the third lands just past 0.3 ms
	env.Run(1)

	var js bytes.Buffer
	if err := r.WriteSeriesJSON(&js); err != nil {
		t.Fatal(err)
	}
	series, err := ReadSeriesJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Name != "smartds_port_rate" || series[0].Labels["port"] != "0" ||
		len(series[0].Points) != 3 || series[0].Points[2].Value != 3 {
		t.Fatalf("series JSON round trip = %+v", series)
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
	const g = 0.10 // events/sec drop; these reports carry no SimPerf

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

	// A run that collapsed below the noise floor fails: the floor
	// applies to the baseline only (1,000 requests down to 10, at 1% of
	// the throughput, is a deadlock, not noise).
	collapsed := mkReport(0.1e9, 100e-6, 0)
	collapsed.Runs[0].Requests = 10
	_, viol = Compare(base, collapsed, g)
	if len(viol) == 0 {
		t.Fatalf("collapsed run passed the gate")
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
