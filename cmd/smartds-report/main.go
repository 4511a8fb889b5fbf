// Command smartds-report compares two machine-readable run reports
// (written by smartds-bench -report) and enforces the performance
// regression gate: it prints a per-run comparison table and exits
// non-zero when any run's throughput dropped or tail latency inflated
// beyond the gate thresholds, or when a baseline run vanished.
//
// Usage:
//
//	smartds-report baseline.json current.json
//	smartds-report -baseline baseline.json current.json
//	smartds-report -max-eps-drop 0.5 base.json cur.json
//	smartds-report -show report.json   # print one report's runs, no gate
//	smartds-report -slo report.json    # fail if any run fired an SLO alert
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/disagg/smartds/internal/cliflags"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/telemetry"
)

func main() {
	baseline := flag.String("baseline", "", "baseline report path (alternative to the first positional argument)")
	show := flag.Bool("show", false, "print a single report's runs without comparing")
	blame := flag.Bool("blame", false, "print a single report's latency blame profiles (per-stage critical-path attribution) with p999 exemplar drill-downs")
	sloGate := flag.Bool("slo", false, "SLO gate: print a single report's fired alerts and exit non-zero when any run fired one")
	maxEPSDrop := flag.Float64("max-eps-drop", 0.10,
		"fail when simulator events/sec falls below baseline*(1-frac); 0 disables")
	flag.Parse()

	args := flag.Args()
	if *sloGate {
		if len(args) != 1 {
			usage("-slo takes exactly one report path")
		}
		rep, err := telemetry.LoadReport(args[0])
		if err != nil {
			fatal(err)
		}
		sloExit(rep)
		return
	}
	if *blame {
		if len(args) != 1 {
			usage("-blame takes exactly one report path")
		}
		rep, err := telemetry.LoadReport(args[0])
		if err != nil {
			fatal(err)
		}
		printBlame(rep)
		return
	}
	if *show {
		if len(args) != 1 {
			usage("-show takes exactly one report path")
		}
		rep, err := telemetry.LoadReport(args[0])
		if err != nil {
			fatal(err)
		}
		printReport(rep)
		return
	}

	basePath := *baseline
	curPath := ""
	switch {
	case basePath != "" && len(args) == 1:
		curPath = args[0]
	case basePath == "" && len(args) == 2:
		basePath, curPath = args[0], args[1]
	default:
		usage("need a baseline and a current report")
	}

	base, err := telemetry.LoadReport(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := telemetry.LoadReport(curPath)
	if err != nil {
		fatal(err)
	}

	deltas, violations := telemetry.Compare(base, cur, *maxEPSDrop)
	fmt.Println(telemetry.ComparisonTable(deltas).String())
	if base.SimPerf != nil && cur.SimPerf != nil && base.SimPerf.EventsPerSec > 0 {
		fmt.Printf("sim perf: %.0f -> %.0f events/sec (%+.1f%%), %.2f -> %.2f allocs/event\n",
			base.SimPerf.EventsPerSec, cur.SimPerf.EventsPerSec,
			(cur.SimPerf.EventsPerSec/base.SimPerf.EventsPerSec-1)*100,
			base.SimPerf.AllocsPerEvent, cur.SimPerf.AllocsPerEvent)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "regression gate FAILED (%d violations):\n", len(violations))
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "regression gate passed: %d runs within thresholds\n", len(deltas))
}

// sloExit prints every fired SLO alert and exits non-zero when any run
// fired one — the CI gate that turns a burn-rate page into a red build.
func sloExit(rep *telemetry.Report) {
	fired := 0
	tbl := metrics.NewTable(fmt.Sprintf("SLO alerts in %q (seed %d)", rep.Name, rep.Seed),
		"run", "slo", "kind", "severity", "at", "detail")
	for _, rr := range rep.Runs {
		for _, al := range rr.Alerts {
			fired++
			tbl.AddRow(rr.Key(), al.SLO, al.Kind, al.Severity,
				metrics.FormatDuration(al.At), al.Detail)
		}
	}
	if fired == 0 {
		fmt.Fprintf(os.Stderr, "SLO gate passed: no alerts fired across %d runs\n", len(rep.Runs))
		return
	}
	fmt.Println(tbl.String())
	fmt.Fprintf(os.Stderr, "SLO gate FAILED: %d alerts fired\n", fired)
	os.Exit(1)
}

// printBlame prints each run's critical-path blame profile.
func printBlame(rep *telemetry.Report) {
	tables := telemetry.BlameTables(rep.Runs)
	for _, tbl := range tables {
		fmt.Println(tbl.String())
	}
	if len(tables) == 0 {
		fmt.Fprintln(os.Stderr, "no critpath sections in this report (the run needs a tracer; e.g. "+cliflags.CritpathExample+")")
	}
}

// printReport renders one report's run records as a table.
func printReport(rep *telemetry.Report) {
	tbl := metrics.NewTable(fmt.Sprintf("run report %q (seed %d, quick=%v)", rep.Name, rep.Seed, rep.Quick),
		"run", "requests", "errors", "throughput", "p50", "p99", "p999")
	for _, rr := range rep.Runs {
		tbl.AddRow(rr.Key(), rr.Requests, rr.Errors,
			metrics.FormatGbps(rr.ThroughputBps),
			metrics.FormatDuration(rr.Latency.P50),
			metrics.FormatDuration(rr.Latency.P99),
			metrics.FormatDuration(rr.Latency.P999))
	}
	fmt.Println(tbl.String())
	if sp := rep.SimPerf; sp != nil {
		fmt.Printf("sim perf: %d events in %.2fs = %.0f events/sec, %.2f allocs/event\n",
			sp.Events, sp.WallSeconds, sp.EventsPerSec, sp.AllocsPerEvent)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "smartds-report: "+msg)
	fmt.Fprintln(os.Stderr, "usage: smartds-report [flags] baseline.json current.json")
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
