package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/metrics"
)

// TestExportersEmptyRegistry pins the degenerate export: a registry
// with nothing registered must still produce a well-formed series file.
func TestExportersEmptyRegistry(t *testing.T) {
	r := NewRegistry()
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

// TestSingleSampleSeries pins the one-point digest and its export:
// First==Last==Min==Max==Mean, and the series file carries one point.
func TestSingleSampleSeries(t *testing.T) {
	s := NewSeries(8)
	s.Append(2e-3, 42)
	d := s.Digest()
	if d.Points != 1 || d.First != 42 || d.Last != 42 || d.Min != 42 || d.Max != 42 || d.Mean != 42 {
		t.Fatalf("single-sample digest = %+v", d)
	}

	r := NewRegistry()
	sc := r.NewRun("one", "SmartDS-1", 3)
	m := sc.Register("smartds_one_total", nil, func() float64 { return 42 })
	sam := r.NewSampler(nil, []*Metric{m})
	_ = sam // the sampler attached the ring; append directly without an env
	m.Series().Append(2e-3, 42)

	var js bytes.Buffer
	if err := r.WriteSeriesJSON(&js); err != nil {
		t.Fatal(err)
	}
	series, err := ReadSeriesJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Digest.Points != 1 ||
		len(series[0].Points) != 1 || series[0].Points[0] != (Point{At: 2e-3, Value: 42}) {
		t.Fatalf("single-sample series file = %+v", series)
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
	var ms []*Metric
	for i := 0; i < n; i++ {
		v := float64(i)
		ms = append(ms, sc.Register("smartds_rdma_tx_bytes_total", map[string]string{"stack": strconv.Itoa(i)},
			func() float64 { return v }))
	}
	r.NewSampler(nil, ms) // attaches the rings; the file lists every sampled series
	var js bytes.Buffer
	if err := r.WriteSeriesJSON(&js); err != nil {
		t.Fatal(err)
	}
	series, err := ReadSeriesJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	stacks := map[string]bool{}
	for _, se := range series {
		if se.Name == "smartds_rdma_tx_bytes_total" {
			stacks[se.Labels["stack"]] = true
		}
	}
	if len(series) != n || len(stacks) != n {
		t.Fatalf("series file has %d series over %d stacks, want %d", len(series), len(stacks), n)
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

// A label value is escaped inside its run-record counter key, so keys
// stay unambiguous whatever a label carries.
func TestCounterKeyEscaping(t *testing.T) {
	r := NewRegistry()
	sc := r.NewRun("x", "CPU-only", 1)
	sc.Register("smartds_odd_total", map[string]string{"p": "a\"b\\c\nd"}, func() float64 { return 7 })
	sc.RecordResults(1e-3, 0, 0, 0, 0, metrics.Summary{})
	if got := sc.Record().Counters[`smartds_odd_total{p="a\"b\\c\nd"}`]; got != 7 || len(sc.Record().Counters) != 1 {
		t.Fatalf("counters = %v, want the escaped key at 7", sc.Record().Counters)
	}
}
