package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// floors give a metric an absolute tolerance below which a change never
// counts: set-up takes milliseconds, where process start-up noise
// dwarfs any share-based bound.
var floors = map[string]float64{"setup_s": 0.05}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// judge compares metric m's repetitions a (before) and b (after). The
// change may worsen the median by the bound's share of a's median, or by
// the metric's floor if that is larger. When either side's quartile
// spread exceeds that tolerance the comparison is unresolved, unless
// every repetition of b beats every repetition of a.
func judge(m metricSpec, a, b []float64) (verdict string, delta float64) {
	ma, mb := median(a), median(b)
	worse := mb - ma
	if m.Better == "higher" {
		worse = -worse
	}
	if ma != 0 {
		delta = (mb - ma) / math.Abs(ma)
	}
	tol := math.Max(m.Bound*math.Abs(ma), floors[m.Name])
	if allBetter(m, a, b) {
		return verdictImproved, delta
	}
	if math.Max(iqr(a), iqr(b)) > tol {
		return verdictUnresolved, delta
	}
	switch {
	case worse > tol:
		return verdictRegression, delta
	case -worse > tol:
		return verdictImproved, delta
	}
	return verdictOK, delta
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// iqr returns the distance between the first and third quartiles, with
// the quartiles placed as Python's statistics.quantiles(n=4) places them
// (the exclusive method).
func iqr(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q(3) - q(1)
}

// runCompare prints every end-to-end metric of every workload the two
// result files share, with a verdict, then the per-layer values side by
// side for information. It returns 1 when any metric regressed.
func runCompare(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if a.GOMAXPROCS != b.GOMAXPROCS || a.NProc != b.NProc {
		fmt.Fprintf(stdout, "warning: host settings differ (gomaxprocs %d vs %d, nproc %d vs %d); host metrics do not compare\n",
			a.GOMAXPROCS, b.GOMAXPROCS, a.NProc, b.NProc)
	}
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	regressions := 0
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdelta\tverdict\t")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(tw, "%s\t(missing from %s)\t\t\t\t\t\n", wa.Name, pathB)
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := repValues(wa, m.Name), repValues(wb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\tmissing\t\n", wa.Name, m.Name)
				continue
			}
			v, delta := judge(m, va, vb)
			if v == verdictRegression {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%s\t\n",
				wa.Name, m.Name, median(va), m.Unit, median(vb), m.Unit, 100*delta, v)
		}
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\nper-layer (information only):")
	tw = tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, m := range sp.PerLayer {
			x, y := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
			d := "="
			if x != y {
				d = fmt.Sprintf("%+.6g", y-x)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t\n", wa.Name, m.Name, x, y, d, m.Unit)
		}
	}
	tw.Flush()
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

// repValues returns one metric's value in every repetition, or its one
// value when a run measures it once (the simulated system's metrics).
func repValues(w *workloadResult, name string) []float64 {
	var vs []float64
	for _, r := range w.Reps {
		if v, ok := r[name]; ok {
			vs = append(vs, v)
		}
	}
	if v, ok := w.EndToEnd[name]; ok && len(vs) == 0 {
		vs = append(vs, v)
	}
	return vs
}
