// Command smartds-report is the one reader of run artifacts. It
// compares two run reports (written by smartds-bench or smartds-sim
// -report) and enforces the performance regression gate: it prints a
// per-run comparison table and exits non-zero when any run's
// throughput dropped or tail latency inflated beyond the gate
// thresholds, or when a baseline run vanished. Given one report, it
// renders its runs, fired SLO alerts, latency blame and, with the
// sampled series file, the hottest series as sparklines.
//
// Usage:
//
//	smartds-report baseline.json current.json
//	smartds-report -baseline baseline.json current.json
//	smartds-report -max-eps-drop 0.5 base.json cur.json
//	smartds-report -show report.json                          # runs, alerts, blame
//	smartds-report -show report.json -series series.json -k 10 # plus the ten hottest series
//	smartds-report -blame report.json  # blame profiles with p999 exemplars
//	smartds-report -slo report.json    # fail if any run fired an SLO alert
//
// Every rendering is a pure function of the input files, so CI
// archives the -show output next to the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/disagg/smartds/internal/cliflags"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smartds-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "baseline report path (alternative to the first positional argument)")
	show := fs.Bool("show", false, "print a single report's runs, SLO alerts and latency blame without comparing")
	seriesPath := fs.String("series", "", "with -show: sampled series JSON (-series-json) whose hottest series get sparklines")
	topK := fs.Int("k", 8, "with -show -series: number of hottest series to show (0: all)")
	blame := fs.Bool("blame", false, "print a single report's latency blame profiles (per-stage critical-path attribution) with p999 exemplar drill-downs")
	sloGate := fs.Bool("slo", false, "SLO gate: print a single report's fired alerts and exit non-zero when any run fired one")
	maxEPSDrop := fs.Float64("max-eps-drop", 0.10,
		"fail when simulator events/sec falls below baseline*(1-frac); 0 disables")
	// Flags may follow the report paths (-show R.json -series S.json):
	// parse up to each path, set it aside, and parse on.
	var paths []string
	for rest := args; ; rest = rest[1:] {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if rest = fs.Args(); len(rest) == 0 {
			break
		}
		paths = append(paths, rest[0])
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "smartds-report: "+msg)
		fmt.Fprintln(stderr, "usage: smartds-report [flags] baseline.json current.json")
		fs.PrintDefaults()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *seriesPath != "" && !*show {
		return usage("-series applies to -show")
	}
	if *sloGate || *blame || *show {
		if len(paths) != 1 {
			return usage("-show, -blame and -slo take exactly one report path")
		}
		rep, err := telemetry.LoadReport(paths[0])
		if err != nil {
			return fail(err)
		}
		switch {
		case *sloGate:
			return sloExit(stdout, stderr, rep)
		case *blame:
			printBlame(stdout, stderr, rep)
			return 0
		}
		var series []telemetry.SeriesRecord
		if *seriesPath != "" {
			if series, err = loadSeries(*seriesPath); err != nil {
				return fail(err)
			}
		}
		printReport(stdout, rep)
		if *seriesPath != "" {
			printTopSeries(stdout, series, *topK)
		}
		return 0
	}

	basePath := *baseline
	curPath := ""
	switch {
	case basePath != "" && len(paths) == 1:
		curPath = paths[0]
	case basePath == "" && len(paths) == 2:
		basePath, curPath = paths[0], paths[1]
	default:
		return usage("need a baseline and a current report")
	}

	base, err := telemetry.LoadReport(basePath)
	if err != nil {
		return fail(err)
	}
	cur, err := telemetry.LoadReport(curPath)
	if err != nil {
		return fail(err)
	}

	deltas, violations := telemetry.Compare(base, cur, *maxEPSDrop)
	fmt.Fprintln(stdout, telemetry.ComparisonTable(deltas).String())
	if base.SimPerf != nil && cur.SimPerf != nil && base.SimPerf.EventsPerSec > 0 {
		fmt.Fprintf(stdout, "sim perf: %.0f -> %.0f events/sec (%+.1f%%), %.2f -> %.2f allocs/event\n",
			base.SimPerf.EventsPerSec, cur.SimPerf.EventsPerSec,
			(cur.SimPerf.EventsPerSec/base.SimPerf.EventsPerSec-1)*100,
			base.SimPerf.AllocsPerEvent, cur.SimPerf.AllocsPerEvent)
	}
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "regression gate FAILED (%d violations):\n", len(violations))
		for _, v := range violations {
			fmt.Fprintln(stderr, "  "+v)
		}
		return 1
	}
	fmt.Fprintf(stderr, "regression gate passed: %d runs within thresholds\n", len(deltas))
	return 0
}

// loadSeries reads a sampled series file (smartds-bench -series-json).
func loadSeries(path string) ([]telemetry.SeriesRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	series, err := telemetry.ReadSeriesJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return series, nil
}

// sloExit prints every fired SLO alert and returns 1 when any run
// fired one — the CI gate that turns a burn-rate page into a red build.
func sloExit(stdout, stderr io.Writer, rep *telemetry.Report) int {
	tbl, fired := telemetry.AlertTable(rep.Runs)
	if fired == 0 {
		fmt.Fprintf(stderr, "SLO gate passed: no alerts fired across %d runs\n", len(rep.Runs))
		return 0
	}
	fmt.Fprintln(stdout, tbl.String())
	fmt.Fprintf(stderr, "SLO gate FAILED: %d alerts fired\n", fired)
	return 1
}

// printBlame prints each run's critical-path blame profile.
func printBlame(stdout, stderr io.Writer, rep *telemetry.Report) {
	tables := telemetry.BlameTables(rep.Runs)
	for _, tbl := range tables {
		fmt.Fprintln(stdout, tbl.String())
	}
	if len(tables) == 0 {
		fmt.Fprintln(stderr, "no critpath sections in this report (the run needs a tracer; e.g. "+cliflags.CritpathExample+")")
	}
}

// printReport renders one report: the run table, the simulator's
// speed, the fired SLO alerts (always present, so a clean run visibly
// says so) and every run's blame profile.
func printReport(w io.Writer, rep *telemetry.Report) {
	tbl := metrics.NewTable(fmt.Sprintf("run report %q (seed %d, quick=%v)", rep.Name, rep.Seed, rep.Quick),
		"run", "requests", "errors", "req/s", "throughput", "p50", "p99", "p999", "alerts")
	for _, rr := range rep.Runs {
		tbl.AddRow(rr.Key(), rr.Requests, rr.Errors,
			fmt.Sprintf("%.0f", rr.ReqPerSec),
			metrics.FormatGbps(rr.ThroughputBps),
			metrics.FormatDuration(rr.Latency.P50),
			metrics.FormatDuration(rr.Latency.P99),
			metrics.FormatDuration(rr.Latency.P999),
			len(rr.Alerts))
	}
	fmt.Fprintln(w, tbl.String())
	if sp := rep.SimPerf; sp != nil {
		fmt.Fprintf(w, "sim perf: %d events in %.2fs = %.0f events/sec, %.2f allocs/event\n\n",
			sp.Events, sp.WallSeconds, sp.EventsPerSec, sp.AllocsPerEvent)
	}
	if alerts, _ := telemetry.AlertTable(rep.Runs); alerts != nil {
		fmt.Fprintln(w, alerts.String())
	} else {
		fmt.Fprintln(w, "SLO alerts: none fired")
		fmt.Fprintln(w)
	}
	for _, bt := range telemetry.BlameTables(rep.Runs) {
		fmt.Fprintln(w, bt.String())
	}
}

// printTopSeries ranks the sampled series by mean magnitude and prints
// the top k (all when k <= 0) with sparklines.
func printTopSeries(w io.Writer, series []telemetry.SeriesRecord, k int) {
	if len(series) == 0 {
		fmt.Fprintln(w, "series: none sampled")
		return
	}
	type row struct {
		name, labels string
		s            telemetry.SeriesRecord
	}
	rows := make([]row, len(series))
	for i, s := range series {
		rows[i] = row{s.Name, telemetry.MakeLabels(s.Labels).String(), s}
	}
	// Rank hot-first; ties break on (name, labels) so equal-magnitude
	// series render in a deterministic order.
	sort.Slice(rows, func(i, j int) bool {
		mi, mj := math.Abs(rows[i].s.Digest.Mean), math.Abs(rows[j].s.Digest.Mean)
		if mi != mj {
			return mi > mj
		}
		if rows[i].name != rows[j].name {
			return rows[i].name < rows[j].name
		}
		return rows[i].labels < rows[j].labels
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	tbl := metrics.NewTable(fmt.Sprintf("top %d series by mean", len(rows)),
		"series", "last", "mean", "max", "trend")
	for _, r := range rows {
		d := r.s.Digest
		tbl.AddRow(r.name+r.labels,
			fmt.Sprintf("%.4g", d.Last), fmt.Sprintf("%.4g", d.Mean), fmt.Sprintf("%.4g", d.Max),
			sparkline(r.s.Points, 24))
	}
	fmt.Fprintln(w, tbl.String())
}

// sparkBars is the eight-level unicode bar ramp.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders up to width points as a unicode bar strip, scaled
// min..max over the window ("-" when there are no points).
func sparkline(pts []telemetry.Point, width int) string {
	if len(pts) == 0 {
		return "-"
	}
	if len(pts) > width {
		// Downsample by striding from the tail so the most recent
		// points always survive.
		stride := (len(pts) + width - 1) / width
		var kept []telemetry.Point
		for i := len(pts) - 1; i >= 0; i -= stride {
			kept = append(kept, pts[i])
		}
		for l, r := 0, len(kept)-1; l < r; l, r = l+1, r-1 {
			kept[l], kept[r] = kept[r], kept[l]
		}
		pts = kept
	}
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		lo, hi = math.Min(lo, p.Value), math.Max(hi, p.Value)
	}
	var b strings.Builder
	for _, p := range pts {
		idx := 0
		if hi > lo {
			idx = int((p.Value - lo) / (hi - lo) * float64(len(sparkBars)-1))
		}
		b.WriteRune(sparkBars[idx])
	}
	return b.String()
}
