package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/metrics"
)

// TestExportersEmptyRegistry pins the degenerate exports: a registry
// with nothing registered must still produce well-formed documents.
func TestExportersEmptyRegistry(t *testing.T) {
	r := NewRegistry()

	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if om.String() != "# EOF\n" {
		t.Fatalf("empty OpenMetrics = %q, want only the EOF marker", om.String())
	}

	var csv bytes.Buffer
	if err := r.WriteSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != "metric,labels,t_sec,value\n" {
		t.Fatalf("empty CSV = %q, want header only", got)
	}

	var js bytes.Buffer
	if err := r.WriteSeriesJSON(&js); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(js.String()); got != "null" {
		t.Fatalf("empty series JSON = %q", got)
	}
}

// TestZeroRunReport covers a report built before any run was recorded:
// it must round-trip and load cleanly rather than panic downstream
// consumers (smartds-report -show / -slo on an aborted run).
func TestZeroRunReport(t *testing.T) {
	r := NewRegistry()
	rep := r.BuildReport("aborted", 9, true, nil)
	if len(rep.Runs) != 0 {
		t.Fatalf("zero-run report carries %d runs", len(rep.Runs))
	}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "aborted" || back.Seed != 9 || len(back.Runs) != 0 {
		t.Fatalf("zero-run report round trip mangled: %+v", back)
	}
}

// TestSingleSampleSeries pins the one-point digest and its exports:
// First==Last==Min==Max==Mean, and both exporters emit exactly one row.
func TestSingleSampleSeries(t *testing.T) {
	s := NewSeries(8)
	s.Append(2e-3, 42)
	d := s.Digest()
	if d.Points != 1 || d.First != 42 || d.Last != 42 || d.Min != 42 || d.Max != 42 || d.Mean != 42 {
		t.Fatalf("single-sample digest = %+v", d)
	}

	r := NewRegistry()
	sc := r.NewRun("one", "SmartDS-1", 3)
	m := sc.CounterFunc("smartds_one_total", "One sample.", nil, func() float64 { return 42 })
	sam := r.NewSampler(nil, []*Metric{m})
	_ = sam // the sampler attached the ring; append directly without an env
	m.Series().Append(2e-3, 42)

	var csv bytes.Buffer
	if err := r.WriteSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(rows) != 2 {
		t.Fatalf("single-sample CSV rows = %d:\n%s", len(rows), csv.String())
	}
	if !strings.Contains(rows[1], ",0.002,42") {
		t.Fatalf("csv row = %q", rows[1])
	}

	var js bytes.Buffer
	if err := r.WriteSeriesJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"points": 1`) {
		t.Fatalf("json digest missing single point:\n%s", js.String())
	}
}

func TestFormatTraceID(t *testing.T) {
	for id, want := range map[uint64]string{
		0:          "0000000000000000",
		7:          "0000000000000007",
		0xabc12345: "00000000abc12345",
		1<<64 - 1:  "ffffffffffffffff",
	} {
		if got := FormatTraceID(id); got != want {
			t.Errorf("FormatTraceID(%#x) = %q, want %q", id, got, want)
		}
	}
}

// Every series of one name is exported as itself, however many a scope
// registers: nothing is folded into an overflow series.
func TestManySeriesOfOneNameExported(t *testing.T) {
	r := NewRegistry()
	sc := r.NewRun("fig10", "SmartDS-6", 42)
	const n = 100
	for i := 0; i < n; i++ {
		v := float64(i)
		sc.CounterFunc("smartds_rdma_tx_bytes_total", "", map[string]string{"stack": strconv.Itoa(i)},
			func() float64 { return v })
	}
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "smartds_rdma_tx_bytes_total{") {
			lines++
		}
	}
	if lines != n {
		t.Fatalf("exported %d series, want %d", lines, n)
	}
	sc.RecordResults(1e-3, 0, 0, 0, 0, metrics.Summary{})
	rr := r.BuildReport("fig10", 42, true, nil).Runs[0]
	if rr.Experiment != "fig10" || rr.Design != "SmartDS-6" || len(rr.Counters) != n {
		t.Fatalf("run %s has %d counters, want %d", rr.Key(), len(rr.Counters), n)
	}
	sum := 0.0
	for key, v := range rr.Counters { // integer values: the sum is order-independent
		if !strings.HasPrefix(key, `smartds_rdma_tx_bytes_total{stack="`) {
			t.Fatalf("counter %q lost its stack label", key)
		}
		sum += v
	}
	if sum != n*(n-1)/2 {
		t.Fatalf("counters sum to %g, want %d", sum, n*(n-1)/2)
	}
}

// A histogram metric's scalar value is its live sample count, and a
// run record's counters carry only counters and gauges.
func TestHistogramMetricValue(t *testing.T) {
	r := NewRegistry()
	sc := r.NewRun("x", "CPU-only", 1)
	h := metrics.NewLatencyHistogram()
	m := sc.Histogram("lat_seconds", "", nil, h)
	if m.Value() != 0 {
		t.Fatalf("empty histogram value = %g", m.Value())
	}
	h.Record(10e-6)
	h.Record(3e-3)
	if m.Value() != 2 {
		t.Fatalf("histogram value = %g, want 2", m.Value())
	}
	sc.RecordResults(1e-3, 2, 0, 0, 0, h.Summarize())
	if c := sc.Record().Counters; len(c) != 0 {
		t.Fatalf("histogram recorded as a counter: %+v", c)
	}
}

// Bucket lines merge le into the series' own labels in key order and
// end at the count: no exemplar suffix or other trailing field.
func TestOpenMetricsBucketLines(t *testing.T) {
	r := NewRegistry()
	h := metrics.NewLatencyHistogram()
	h.Record(5e-6)
	h.Record(2e-3)
	r.Histogram("lat_seconds", "", MakeLabels(map[string]string{"design": "SmartDS", "z": "1"}), h)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]bool{}
	for _, b := range h.Buckets() {
		bounds[omFloat(b.UpperBound)] = true
	}
	const prefix = `lat_seconds_bucket{design="SmartDS",le="`
	var counts []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		le, rest, ok := strings.Cut(strings.TrimPrefix(line, prefix), `",z="1"} `)
		if !strings.HasPrefix(line, prefix) || !ok || !bounds[le] {
			t.Fatalf("malformed bucket line %q", line)
		}
		if _, err := strconv.ParseUint(rest, 10, 64); err != nil {
			t.Fatalf("bucket line %q does not end at its count", line)
		}
		counts = append(counts, rest)
	}
	if len(counts) < 3 || counts[0] != "0" || counts[len(counts)-1] != "2" {
		t.Fatalf("bucket counts %v, want a leading 0 bucket and a final 2", counts)
	}
	for _, want := range []string{
		`lat_seconds_bucket{design="SmartDS",le="+Inf",z="1"} 2` + "\n",
		`lat_seconds_count{design="SmartDS",z="1"} 2` + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("export missing %q in:\n%s", want, buf.String())
		}
	}
}
