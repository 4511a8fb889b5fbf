// Command smartds-sim runs one free-form cluster scenario and prints
// client-observed results plus middle-tier resource usage.
//
// Usage:
//
//	smartds-sim -kind smartds -ports 2 -workers 4 -window 128 -measure 50ms
//	smartds-sim -kind cpu -workers 48 -reads 0.2 -open-rate 1e6
//	smartds-sim -config examples/scenarios/smartds-mixed.json -report run.json
//
// The observability flags (-trace, -trace-sample, -critpath-folded,
// -breakdown, -slo, -report, -metrics, -series-*) and -faults,
// -replication and -seed are shared with smartds-bench via
// internal/cliflags and behave identically, with or without -config. A
// scenario file's own seed, when set, takes precedence over -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/disagg/smartds/internal/cliflags"
	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run parses args, runs one scenario and writes the artifacts the flags
// request. The scenario comes from -config or from the per-design
// flags; the shared observability and fault flags apply to both. It
// returns the process exit code: 1 when requests failed or reads did
// not verify (under a fault campaign, when data integrity or
// durability broke). Bad arguments and unwritable artifacts return an
// error.
func run(args []string) (int, error) {
	fs := flag.NewFlagSet("smartds-sim", flag.ContinueOnError)
	common := cliflags.Register(fs)
	kindFlag := fs.String("kind", "smartds", "middle-tier design: cpu | acc | bf2 | smartds")
	ports := fs.Int("ports", 1, "SmartDS ports")
	workers := fs.Int("workers", 2, "host CPU cores serving I/O")
	window := fs.Int("window", 64, "closed-loop outstanding requests per client")
	openRate := fs.Float64("open-rate", 0, "open-loop request rate (req/s); 0 = closed loop")
	reads := fs.Float64("reads", 0, "read fraction")
	bypass := fs.Float64("bypass", 0, "latency-sensitive (no-compression) fraction")
	storageN := fs.Int("storage", 3, "storage servers")
	clients := fs.Int("clients", 1, "compute clients")
	warmup := fs.Duration("warmup", 5*time.Millisecond, "virtual warmup")
	measure := fs.Duration("measure", 30*time.Millisecond, "virtual measurement window")
	modeled := fs.Bool("modeled", false, "model payload sizes instead of moving real blocks")
	ddioOff := fs.Bool("no-ddio", false, "disable DDIO (Acc baseline)")
	maintenance := fs.Bool("maintenance", false, "run background maintenance services")
	configPath := fs.String("config", "", "JSON scenario file (overrides the per-design and workload flags; the observability and fault flags still apply)")
	if err := fs.Parse(args); err != nil {
		// The flag set has already printed the problem and the usage.
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}

	var (
		cfg cluster.Config
		wl  cluster.Workload
	)
	kindName := *kindFlag
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return 0, err
		}
		sc, err := cluster.ParseScenario(data)
		if err != nil {
			return 0, err
		}
		if cfg, err = sc.ClusterConfig(); err != nil {
			return 0, err
		}
		if sc.Seed == 0 {
			cfg.Seed = common.Seed
		}
		wl = sc.WorkloadConfig()
		*maintenance = sc.Maintenance
		kindName = sc.Kind
	} else {
		var kind middletier.Kind
		switch *kindFlag {
		case "cpu", "cpu-only":
			kind = middletier.CPUOnly
		case "acc", "accel":
			kind = middletier.Accel
		case "bf2":
			kind = middletier.BF2
		case "smartds", "sds":
			kind = middletier.SmartDS
		default:
			return 0, fmt.Errorf("unknown kind %q", *kindFlag)
		}
		cfg = cluster.DefaultConfig(kind)
		cfg.Seed = common.Seed
		cfg.Functional = !*modeled
		cfg.NumStorage = *storageN
		cfg.NumClients = *clients
		cfg.MT.Workers = *workers
		cfg.MT.Ports = *ports
		cfg.MT.DDIO = !*ddioOff
		if kind != middletier.SmartDS && kind != middletier.BF2 {
			cfg.MT.Ports = 1
		}
		wl = cluster.Workload{
			Window:         *window,
			Rate:           *openRate,
			Warmup:         warmup.Seconds(),
			Measure:        measure.Seconds(),
			ReadFraction:   *reads,
			BypassFraction: *bypass,
		}
	}

	proto, err := common.Protocol()
	if err != nil {
		return 0, err
	}
	specs, err := common.SLO()
	if err != nil {
		return 0, err
	}
	cfg.MT.Protocol = proto
	cfg.SLO = specs

	tracer := common.NewTracer()
	cfg.Trace = tracer
	folded := common.NewFolded()
	cfg.CritpathFolded = folded
	reg := common.NewRegistry()
	cfg.Telemetry = reg
	cfg.TelemetryExp = "sim"
	var sched *faults.Schedule
	if common.FaultSpec != "" {
		sched, err = faults.Parse(common.FaultSpec)
		if err != nil {
			return 0, err
		}
		// Bounded replication fan-outs so a crashed replica cannot
		// strand client window slots (see middletier.ReplicateTimeout).
		if cfg.MT.ReplicateTimeout == 0 {
			cfg.MT.ReplicateTimeout = 1.5e-3
		}
	}
	c := cluster.New(cfg)
	var m *middletier.Maintenance
	if *maintenance {
		m = c.MT.StartMaintenance(c.Storage)
		defer m.Stop()
	}
	var inj *faults.Injector
	if sched != nil {
		inj, err = c.ApplyFaults(sched)
		if err != nil {
			return 0, err
		}
	}

	start := time.Now()
	res := c.Run(wl)

	printResults(c, res, m)
	durabilityViolated := false
	if inj != nil {
		fmt.Println(inj.Report().String())
		fmt.Println(inj.Monitor.Stats(sched).Table().String())
		if cfg.Functional {
			if err := c.CheckAckedWrites(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				durabilityViolated = true
			} else {
				fmt.Println("durability: every acked write readable from a current replica")
			}
		}
	}
	if len(res.Alerts) > 0 {
		tbl := metrics.NewTable("SLO alerts", "slo", "kind", "at", "detail")
		for _, al := range res.Alerts {
			tbl.AddRow(al.SLO, al.Kind, metrics.FormatDuration(al.At), al.Detail)
		}
		fmt.Println(tbl.String())
	}
	if common.Breakdown {
		for _, tbl := range telemetry.BlameTables(reg.Runs()) {
			fmt.Println(tbl.String())
		}
	}
	if common.TraceFile != "" {
		if err := writeTrace(tracer, common.TraceFile); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d span leaks)\n", common.TraceFile, tracer.Leaked())
	}
	if common.FoldedFile != "" {
		if err := writeFile(common.FoldedFile, folded.Write); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "critical-path folded stacks written to %s\n", common.FoldedFile)
	}
	if reg != nil {
		if common.ReportFile != "" {
			rep := reg.BuildReport("sim", cfg.Seed, !cfg.Functional, map[string]string{
				"kind":         kindName,
				"faults":       common.FaultSpec,
				"replication":  proto.String(),
				"slo":          common.SLOSpec,
				"trace_sample": fmt.Sprintf("%g", common.TraceSample),
			})
			if err := writeFile(common.ReportFile, func(w io.Writer) error {
				return telemetry.WriteReport(w, rep)
			}); err != nil {
				return 0, err
			}
			fmt.Fprintf(os.Stderr, "run report written to %s\n", common.ReportFile)
		}
		if err := common.WriteArtifacts(reg, writeFile); err != nil {
			return 0, err
		}
	}
	fmt.Fprintf(os.Stderr, "wall time: %s\n", time.Since(start).Round(time.Millisecond))

	if inj != nil {
		// Under a fault campaign, client-visible errors are honest
		// refusals (unroutable writes while replicas are dark); what must
		// hold is data integrity and durability.
		if res.VerifyMismatches > 0 || durabilityViolated {
			return 1, nil
		}
		return 0, nil
	}
	if res.RunErrors > 0 || res.VerifyMismatches > 0 {
		return 1, nil
	}
	return 0, nil
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

// writeTrace exports the tracer as a Chrome trace-event JSON file.
func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResults renders the standard result table, with the maintenance
// services' work when m is running them.
func printResults(c *cluster.Cluster, res cluster.Results, m *middletier.Maintenance) {
	tbl := metrics.NewTable(fmt.Sprintf("%s scenario", c.KindName()),
		"metric", "value")
	tbl.AddRow("throughput", metrics.FormatGbps(res.Throughput))
	tbl.AddRow("requests/s", fmt.Sprintf("%.0f", res.ReqPerSec))
	tbl.AddRow("requests measured", res.Requests)
	tbl.AddRow("errors", res.Errors)
	tbl.AddRow("errors (whole run)", res.RunErrors)
	tbl.AddRow("avg latency", metrics.FormatDuration(res.Lat.Mean))
	tbl.AddRow("p50", metrics.FormatDuration(res.Lat.P50))
	tbl.AddRow("p99", metrics.FormatDuration(res.Lat.P99))
	tbl.AddRow("p999", metrics.FormatDuration(res.Lat.P999))
	tbl.AddRow("host mem read", metrics.FormatGbps(res.MemReadRate))
	tbl.AddRow("host mem write", metrics.FormatGbps(res.MemWriteRate))
	tbl.AddRow("PCIe H2D (all devices)", metrics.FormatGbps(res.TotalPCIeH2D()))
	tbl.AddRow("PCIe D2H (all devices)", metrics.FormatGbps(res.TotalPCIeD2H()))
	tbl.AddRow("read verify mismatches", res.VerifyMismatches)
	if m != nil {
		tbl.AddRow("compaction passes", m.CompactionPasses)
		tbl.AddRow("GC passes", m.GCPasses)
		tbl.AddRow("GC bytes reclaimed", m.BytesReclaimed)
		tbl.AddRow("snapshots", m.Snapshots)
	}
	fmt.Println(tbl.String())
}
