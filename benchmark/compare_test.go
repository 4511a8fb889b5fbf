package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// Reference values from Python: q = statistics.quantiles(v, n=4);
	// q[2] - q[0].
	cases := []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{10, 20}, 15},
		{[]float64{2.5, 1.0, 4.0, 3.5, 7.0, 6.0}, 4.125},
		{[]float64{5, 5, 5, 5}, 0},
		{[]float64{42}, 0},
	}
	for _, c := range cases {
		if got := iqr(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqr(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestMedianOfSkipsAbsentKeys(t *testing.T) {
	ms := []map[string]float64{{"wall_s": 3}, {"wall_1p_s": 1}, {"wall_s": 1}, {"wall_s": 2}}
	if got := medianOf(ms, "wall_s"); got != 2 {
		t.Errorf("medianOf(wall_s) = %v, want 2", got)
	}
	if got := medianOf(ms, "wall_1p_s"); got != 1 {
		t.Errorf("medianOf(wall_1p_s) = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	gbps := metricSpec{Name: "sim_gbps", Unit: "Gbps", Better: "higher", Bound: 0.05}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", wall, []float64{2.0, 2.01, 1.99}, []float64{2.0, 2.02, 1.98}, verdictOK},
		{"within bound", wall, []float64{2.0, 2.0, 2.0}, []float64{2.15, 2.15, 2.15}, verdictOK},
		{"regression", wall, []float64{2.0, 2.0, 2.0}, []float64{2.3, 2.3, 2.3}, verdictRegression},
		{"improved", wall, []float64{2.0, 2.0, 2.0}, []float64{1.6, 1.6, 1.6}, verdictImproved},
		{"spread wider than bound", wall, []float64{1.0, 2.0, 3.0}, []float64{2.2, 2.3, 2.4}, verdictUnresolved},
		{"every run better beats spread", wall, []float64{1.5, 2.0, 2.5}, []float64{1.0, 1.1, 1.2}, verdictImproved},
		{"higher is better: drop", gbps, []float64{60, 60, 60}, []float64{55, 55, 55}, verdictRegression},
		{"higher is better: rise", gbps, []float64{60, 60, 60}, []float64{65, 65, 65}, verdictImproved},
		{"setup floor absorbs small absolute change", setup, []float64{0.010, 0.011, 0.012}, []float64{0.040, 0.041, 0.042}, verdictOK},
		{"setup beyond floor", setup, []float64{0.010, 0.011, 0.012}, []float64{0.090, 0.091, 0.092}, verdictRegression},
		{"setup spread under floor resolves", setup, []float64{0.005, 0.020, 0.035}, []float64{0.010, 0.020, 0.030}, verdictOK},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	sp := &spec{
		EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}},
		PerLayer: []metricSpec{{Name: "sim.events", Unit: "count", Better: "lower"}},
	}
	result := func(wall float64) *resultsFile {
		return &resultsFile{GOMAXPROCS: 2, NProc: 2, Workloads: []*workloadResult{{
			Name:     "open-bf2",
			Reps:     []map[string]float64{{"wall_s": wall}, {"wall_s": wall}, {"wall_s": wall}},
			PerLayer: map[string]float64{"sim.events": 100},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, r *resultsFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow := write("a.json", result(2.0)), write("b.json", result(2.05)), write("c.json", result(2.5))

	var out, errOut bytes.Buffer
	if code := runCompare(sp, base, same, &out, &errOut); code != 0 {
		t.Errorf("same code: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "sim.events") {
		t.Errorf("per-layer values not printed:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(sp, base, slow, &out, &errOut); code != 1 {
		t.Errorf("regression: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("no regression verdict printed:\n%s", out.String())
	}
}
