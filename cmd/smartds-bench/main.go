// Command smartds-bench regenerates the paper's evaluation tables and
// figures from the simulated system.
//
// Usage:
//
//	smartds-bench -exp fig7          # one experiment
//	smartds-bench -exp all           # the whole evaluation
//	smartds-bench -exp fig10 -quick  # fast, modeled-payload mode
//	smartds-bench -list              # available experiment ids
//
// Telemetry artifacts (all deterministic for a fixed seed):
//
//	-report report.json      # run report: every run's numbers and counter finals (regression gate input)
//	-series-json series.json # every sampled time series with digests, JSON
//
// Observability (shared with smartds-sim via internal/cliflags):
//
//	-trace-sample 0.01       # head-sample 1% of trace spans (tail kept)
//	-breakdown               # critical-path blame tables for every run
//	-slo "avail:99.9;ttr:10ms"  # burn-rate alerts into the report
//
// Profiling: -cpuprofile / -memprofile write pprof files covering the
// experiment execution.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/disagg/smartds/internal/cliflags"
	"github.com/disagg/smartds/internal/experiments"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/telemetry"
)

// csvOut switches table rendering to CSV.
var csvOut bool

func main() {
	common := cliflags.Register(flag.CommandLine)
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	quick := flag.Bool("quick", false, "shrink windows and use modeled payloads")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.BoolVar(&csvOut, "csv", false, "emit tables as CSV")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	proto, err := common.Protocol()
	if err != nil {
		fatal(err)
	}
	specs, err := common.SLO()
	if err != nil {
		fatal(err)
	}
	opt := experiments.Options{Quick: *quick, Seed: common.Seed,
		FaultSpec: common.FaultSpec, Replication: proto, SLO: specs}
	opt.Trace = common.NewTracer()
	opt.CritpathFolded = common.NewFolded()
	opt.Telemetry = common.NewRegistry()
	start := time.Now()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if *exp == "all" {
		for _, name := range experiments.Names() {
			runOne(name, opt)
		}
	} else {
		runOne(*exp, opt)
	}
	// Capture wall time and allocation counts over just the experiment
	// execution, before artifact serialization muddies them.
	wall := time.Since(start).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if common.Breakdown {
		printTables(telemetry.BlameTables(opt.Telemetry.Runs()))
	}
	if common.TraceFile != "" {
		if err := writeFile(common.TraceFile, opt.Trace.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", common.TraceFile)
	}
	if common.FoldedFile != "" {
		if err := writeFile(common.FoldedFile, opt.CritpathFolded.Write); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "critical-path folded stacks written to %s\n", common.FoldedFile)
	}
	if common.ReportFile != "" {
		rep := opt.Telemetry.BuildReport(*exp, common.Seed, *quick, map[string]string{
			"exp":          *exp,
			"quick":        strconv.FormatBool(*quick),
			"breakdown":    strconv.FormatBool(common.Breakdown),
			"faults":       common.FaultSpec,
			"replication":  proto.String(),
			"slo":          common.SLOSpec,
			"trace_sample": strconv.FormatFloat(common.TraceSample, 'g', -1, 64),
		})
		// SimPerf is wall-clock (non-deterministic), so it is attached
		// here — after BuildReport — and never inside the registry, which
		// must stay a pure function of the seed.
		var events uint64
		for _, rr := range rep.Runs {
			events += rr.SimEvents
		}
		if events > 0 && wall > 0 {
			allocs := ms1.Mallocs - ms0.Mallocs
			rep.SimPerf = &telemetry.SimPerf{
				Events:         events,
				WallSeconds:    wall,
				EventsPerSec:   float64(events) / wall,
				Allocs:         allocs,
				AllocsPerEvent: float64(allocs) / float64(events),
			}
			fmt.Fprintf(os.Stderr, "sim perf: %d events in %.2fs = %.0f events/sec, %.2f allocs/event\n",
				events, wall, rep.SimPerf.EventsPerSec, rep.SimPerf.AllocsPerEvent)
		}
		if err := writeFile(common.ReportFile, func(w io.Writer) error {
			return telemetry.WriteReport(w, rep)
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "run report written to %s\n", common.ReportFile)
	}
	if err := common.WriteSeries(opt.Telemetry, writeFile); err != nil {
		fatal(err)
	}
	if *memProfile != "" {
		runtime.GC()
		if err := writeFile(*memProfile, pprof.WriteHeapProfile); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}

// writeFile creates path and streams fn's output into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func runOne(name string, opt experiments.Options) {
	t0 := time.Now()
	tables, err := experiments.Run(name, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	printTables(tables)
	fmt.Fprintf(os.Stderr, "[%s done in %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
}

// printTables writes tables to stdout as text, or as CSV under -csv.
func printTables(tables []*metrics.Table) {
	for _, tbl := range tables {
		if csvOut {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl.String())
		}
	}
}
