package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewLatencyHistogram()
	vals := []float64{1e-6, 2e-6, 3e-6, 4e-6}
	for _, v := range vals {
		h.Record(v)
	}
	if got, want := h.Mean(), 2.5e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 4e-6 || h.Min() != 1e-6 {
		t.Fatalf("extremes: min=%g max=%g", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	var raw []float64
	// Deterministic skewed distribution across several decades.
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		u := float64(x>>11) / float64(1<<53)
		v := 1e-6 * math.Pow(1000, u) // log-uniform on [1us, 1ms]
		raw = append(raw, v)
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := ExactQuantile(raw, q)
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.05 {
			t.Fatalf("q=%g: histogram %g vs exact %g (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(1e-6, 1e-3, 30)
	h.Record(1e-9) // under
	h.Record(1.0)  // over
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(0.01) != 1e-9 {
		t.Fatalf("low quantile should clamp to min seen, got %g", h.Quantile(0.01))
	}
	if h.Quantile(0.9999) != 1.0 {
		t.Fatalf("high quantile should clamp to max seen, got %g", h.Quantile(0.9999))
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewLatencyHistogram(), NewLatencyHistogram()
	for i := 1; i <= 100; i++ {
		a.Record(float64(i) * 1e-6)
		b.Record(float64(i) * 2e-6)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if math.Abs(a.Max()-200e-6) > 1e-12 {
		t.Fatalf("merged max = %g", a.Max())
	}
}

func TestHistogramMergeGeometryMismatch(t *testing.T) {
	a := NewHistogram(1e-6, 1e-3, 30)
	b := NewHistogram(1e-6, 1e-2, 30)
	defer func() {
		if recover() == nil {
			t.Fatal("geometry mismatch merge did not panic")
		}
	}()
	a.Merge(b)
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(1e-3)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("reset did not clear samples")
	}
	h.Record(2e-3)
	if h.Count() != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint16) bool {
		h := NewLatencyHistogram()
		x := uint64(seed) + 1
		for i := 0; i < 500; i++ {
			x = x*2862933555777941757 + 3037000493
			v := 1e-7 + float64(x%1000000)*1e-9
			h.Record(v)
		}
		prev := 0.0
		for q := 0.01; q <= 1.0; q += 0.01 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterWindows(t *testing.T) {
	m := NewMeter(0)
	m.Add(100)
	if r := m.MarkWindow(2); r != 50 {
		t.Fatalf("window rate = %g, want 50", r)
	}
	m.Add(30)
	if r := m.MarkWindow(3); r != 30 {
		t.Fatalf("second window = %g, want 30", r)
	}
	if m.Total() != 130 {
		t.Fatalf("total = %g", m.Total())
	}
	if r := m.MarkWindow(3); r != 0 {
		t.Fatalf("zero-width window = %g, want 0", r)
	}
}

// TestQuantileUnderMass pins Quantile when the target quantile falls
// inside the below-range (under) mass: every such quantile reports the
// exact tracked minimum, which is also what ExactQuantile returns only
// for the smallest sample — so the histogram's answer lower-bounds the
// exact one but never exceeds the under-range ceiling.
func TestQuantileUnderMass(t *testing.T) {
	h := NewLatencyHistogram() // covers [100ns, 10s)
	samples := []float64{10e-9, 40e-9, 80e-9, 1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 7e-6}
	for _, v := range samples {
		h.Record(v)
	}
	// q=0.1..0.3 target the three under-range samples.
	for _, q := range []float64{0.05, 0.1, 0.2, 0.3} {
		got := h.Quantile(q)
		if got != 10e-9 {
			t.Fatalf("Quantile(%g) = %g, want tracked min 10e-9 while inside under mass", q, got)
		}
		exact := ExactQuantile(samples, q)
		if got > exact {
			t.Fatalf("Quantile(%g) = %g exceeds exact %g", q, got, exact)
		}
		if exact >= 100e-9 {
			t.Fatalf("test setup wrong: exact quantile %g left the under mass", exact)
		}
	}
	// The first in-range quantile must leave the floor and agree with
	// the exact value to bucket resolution (~3.8% at 60/decade).
	got := h.Quantile(0.4)
	exact := ExactQuantile(samples, 0.4)
	if rel := math.Abs(got-exact) / exact; rel > 0.05 {
		t.Fatalf("Quantile(0.4) = %g vs exact %g (rel err %g)", got, exact, rel)
	}
}

// TestQuantileOverMass pins Quantile when the target falls inside the
// above-range (over) mass: it reports the exact tracked maximum, which
// upper-bounds the exact quantile.
func TestQuantileOverMass(t *testing.T) {
	h := NewHistogram(100e-9, 1e-3, 60) // deliberately narrow: [100ns, 1ms)
	samples := []float64{1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 7e-6, 2e-3, 3e-3, 5e-3}
	for _, v := range samples {
		h.Record(v)
	}
	for _, q := range []float64{0.75, 0.8, 0.9, 0.99} {
		got := h.Quantile(q)
		if got != 5e-3 {
			t.Fatalf("Quantile(%g) = %g, want tracked max 5e-3 while inside over mass", q, got)
		}
		exact := ExactQuantile(samples, q)
		if got < exact {
			t.Fatalf("Quantile(%g) = %g below exact %g", q, got, exact)
		}
	}
	// A quantile below the over mass must stay in-range and accurate.
	got := h.Quantile(0.5)
	exact := ExactQuantile(samples, 0.5)
	if rel := math.Abs(got-exact) / exact; rel > 0.05 {
		t.Fatalf("Quantile(0.5) = %g vs exact %g (rel err %g)", got, exact, rel)
	}
}

// TestQuantileNearFloor mirrors the breakdown-table concern: stages
// whose durations sit at or below the 100 ns histogram floor must not
// silently mis-report — the mean stays exact even when every sample is
// under-range, and quantiles clamp to the true extremes.
func TestQuantileNearFloor(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Record(50e-9) // completion bookkeeping, sub-floor
	}
	if m := h.Mean(); math.Abs(m-50e-9) > 1e-15 {
		t.Fatalf("mean of sub-floor samples = %g, want 50e-9 (float-sum exact)", m)
	}
	if got := h.Quantile(0.99); got != 50e-9 {
		t.Fatalf("p99 of sub-floor samples = %g, want 50e-9", got)
	}
	if got, exact := h.Quantile(0.5), ExactQuantile([]float64{50e-9}, 0.5); got != exact {
		t.Fatalf("p50 = %g, exact = %g", got, exact)
	}
}

func TestRateConversions(t *testing.T) {
	if g := BytesPerSecToGbps(12.5e9 / 100 * 100); math.Abs(g-100) > 1e-9 {
		t.Fatalf("12.5 GB/s = %g Gbps, want 100", g)
	}
	if b := GbpsToBytesPerSec(100); math.Abs(b-12.5e9) > 1e-3 {
		t.Fatalf("100 Gbps = %g B/s, want 12.5e9", b)
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{FormatDuration(0), "0"},
		{FormatDuration(500e-9), "500 ns"},
		{FormatDuration(1.5e-6), "1.50 us"},
		{FormatDuration(2.5e-3), "2.500 ms"},
		{FormatDuration(1.25), "1.250 s"},
		{FormatBytes(512), "512 B"},
		{FormatBytes(2048), "2.00 KiB"},
		{FormatBytes(3 * 1024 * 1024), "3.00 MiB"},
		{FormatBytes(5 * 1024 * 1024 * 1024), "5.00 GiB"},
		{FormatGbps(12.5e9), "100.00 Gbps"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("format: got %q, want %q", c.got, c.want)
		}
	}
}

func TestSummaryString(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Record(1e-6)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("summary count = %d", s.Count)
	}
	str := s.String()
	if !strings.Contains(str, "n=100") || !strings.Contains(str, "avg=") {
		t.Fatalf("summary string %q", str)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", "x")
	tb.AddNote("hello %d", 7)
	out := tb.String()
	for _, want := range []string{"== Demo ==", "name", "alpha", "1.5", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("unexpected table shape:\n%s", out)
	}

	// A multi-byte cell is as wide as its runes: "µs ▁▂▃" is 6 runes in
	// 13 bytes, so every line of the table is 6+2+5 runes long.
	tb = NewTable("", "unit", "value")
	tb.AddRow("µs ▁▂▃", "x")
	tb.AddRow("s", "12345")
	for _, line := range strings.Split(strings.TrimSuffix(tb.String(), "\n"), "\n") {
		if n := utf8.RuneCountInString(line); n != 13 {
			t.Fatalf("line %q is %d runes wide, want 13:\n%s", line, n, tb.String())
		}
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if ExactQuantile(s, 0) != 1 || ExactQuantile(s, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if ExactQuantile(s, 0.5) != 3 {
		t.Fatalf("median = %g", ExactQuantile(s, 0.5))
	}
	if ExactQuantile(nil, 0.5) != 0 {
		t.Fatal("empty slice quantile should be 0")
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated its input")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", `with"quote`)
	tb.AddRow("with,comma", "v")
	got := tb.CSV()
	want := "a,b\nplain,\"with\"\"quote\"\n\"with,comma\",v\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestMeterZeroWidthWindows(t *testing.T) {
	m := NewMeter(1.0)
	m.Add(100)
	// Two marks at the same sim instant: the second must report 0 (not
	// Inf/NaN) and must NOT swallow the accumulated amount.
	if r := m.MarkWindow(2.0); r != 100 {
		t.Fatalf("first window rate = %g, want 100", r)
	}
	m.Add(50)
	if r := m.MarkWindow(2.0); r != 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		t.Fatalf("zero-width window rate = %g, want 0", r)
	}
	// The 50 units stayed in the open window and land in the next one.
	if r := m.MarkWindow(3.0); r != 50 {
		t.Fatalf("post-zero-width window rate = %g, want 50", r)
	}
	// Backwards marks are no-ops too.
	if r := m.MarkWindow(2.5); r != 0 {
		t.Fatalf("backwards window rate = %g, want 0", r)
	}
	m.Add(10)
	if r := m.MarkWindow(4.0); r != 10 {
		t.Fatalf("window after backwards mark = %g, want 10 (mark must not move back)", r)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewLatencyHistogram()
	var samples []float64
	// Deterministic spread across several decades plus out-of-range mass.
	for i := 1; i <= 500; i++ {
		v := 100e-9 * math.Pow(10, float64(i%7)) * (1 + float64(i)/500)
		h.Record(v)
		samples = append(samples, v)
	}
	h.Record(1e-9) // under range
	h.Record(100)  // over range
	samples = append(samples, 1e-9, 100)

	bs := h.Buckets()
	if len(bs) < 3 {
		t.Fatalf("too few buckets: %d", len(bs))
	}
	// Invariants: ascending bounds, monotone counts, first bound = min,
	// last = +Inf carrying the total count.
	for i := 1; i < len(bs); i++ {
		if !(bs[i].UpperBound > bs[i-1].UpperBound) {
			t.Fatalf("bucket bounds not ascending at %d: %g <= %g", i, bs[i].UpperBound, bs[i-1].UpperBound)
		}
		if bs[i].Count < bs[i-1].Count {
			t.Fatalf("cumulative counts not monotone at %d", i)
		}
	}
	if bs[0].UpperBound != 100e-9 {
		t.Fatalf("first bound = %g, want histogram min", bs[0].UpperBound)
	}
	if bs[0].Count != 1 {
		t.Fatalf("under-range count = %d, want 1", bs[0].Count)
	}
	if !math.IsInf(bs[len(bs)-1].UpperBound, 1) || bs[len(bs)-1].Count != h.Count() {
		t.Fatalf("final bucket must be +Inf with total count")
	}

	// Pin the boundaries against ExactQuantile: for each quantile, the
	// first bucket whose cumulative count reaches ceil(q*n) must have
	// the exact quantile at or below its upper bound, and above the
	// previous bound (the same bracketing Quantile() relies on).
	n := float64(h.Count())
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		target := uint64(math.Ceil(q * n))
		exact := ExactQuantile(samples, q)
		for i, b := range bs {
			if b.Count >= target {
				if exact > b.UpperBound {
					t.Fatalf("q=%g: exact %g above bucket bound %g", q, exact, b.UpperBound)
				}
				if i > 0 && exact <= bs[i-1].UpperBound && bs[i-1].Count < target {
					t.Fatalf("q=%g: exact %g below previous bound %g", q, exact, bs[i-1].UpperBound)
				}
				break
			}
		}
	}

	// Sum matches what was recorded.
	want := 0.0
	for _, v := range samples {
		want += v
	}
	if diff := math.Abs(h.Sum() - want); diff > 1e-9*want {
		t.Fatalf("Sum = %g, want %g", h.Sum(), want)
	}
}

// TestMeterTotalSurvivesWindows checks that closing windows only moves
// the window mark: Total stays the lifetime sum.
func TestMeterTotalSurvivesWindows(t *testing.T) {
	m := NewMeter(1)
	m.Add(100)
	if r := m.MarkWindow(2); r != 100 {
		t.Fatalf("first window = %g, want 100", r)
	}
	m.Add(50)
	m.MarkWindow(2) // zero-width: no-op
	if r := m.MarkWindow(4); r != 25 {
		t.Fatalf("second window = %g, want 25", r)
	}
	if m.Total() != 150 {
		t.Fatalf("Total = %g, want 150", m.Total())
	}
}
