package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/telemetry"
)

// writeReport builds a report from the registry's runs and writes it
// under dir, returning its path.
func writeReport(t *testing.T, dir, name string, reg *telemetry.Registry) string {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteReport(f, reg.BuildReport(name, 42, true, nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// cleanRun records one fault-free run per design into a new registry.
func cleanRun(designs ...string) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	for _, d := range designs {
		sc := reg.NewRun("clean", d, 1)
		sc.RecordResults(1e-3, 100, 0, 1e9, 100000, metrics.Summary{Count: 100, P999: 50e-6})
	}
	return reg
}

// writeFixture builds a small report through the real telemetry
// pipeline (a fired alert and a blame profile included) plus the
// series file WriteSeriesJSON writes for it, so the test exercises the
// artifacts the binaries produce.
func writeFixture(t *testing.T, dir string) (reportPath, seriesPath string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	sc := reg.NewRun("top-test", "SmartDS-1", 42)
	env := sim.NewEnv()
	sc.Register("smartds_demo_total", nil, func() float64 { return env.Now() * 1e4 })
	sc.StartSampling(env, 0.5e-3) // five points on the 100 µs grid
	env.Run(1)
	sc.RecordResults(8e-3, 1000, 0, 5e9, 125000, metrics.Summary{
		Count: 1000, Mean: 40e-6, P50: 35e-6, P99: 60e-6, P999: 2e-3, Max: 3e-3,
	})
	sc.RecordAlerts([]telemetry.Alert{{
		SLO: "ttr:1ms", Kind: "ttr", Severity: "page", At: 9e-3,
		BurnShort: 2, BurnLong: 2, Detail: "restart:mt ttr 2ms over ceiling 1ms",
	}})
	sc.RecordCritpath(telemetry.CritpathSummary{Requests: 10, Stages: []telemetry.CritpathStage{
		{Stage: "mt/compress.engine", MeanFrac: 0.6, P99Frac: 0.7, P999Frac: 0.8, MeanSec: 24e-6},
		{Stage: "net/request", MeanFrac: 0.4, P99Frac: 0.3, P999Frac: 0.2, MeanSec: 16e-6},
	}})
	reportPath = writeReport(t, dir, "top-test", reg)

	seriesPath = filepath.Join(dir, "series.json")
	f, err := os.Create(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSeriesJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return reportPath, seriesPath
}

// runCmd runs the command and returns its exit code, stdout and stderr.
func runCmd(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestShowSnapshotDeterministic pins that two renders of the same
// artifacts are byte-identical (the CI snapshot contract) and carry
// the runs, alerts, blame and sparkline sections.
func TestShowSnapshotDeterministic(t *testing.T) {
	reportPath, seriesPath := writeFixture(t, t.TempDir())
	snap := func() string {
		code, out, errOut := runCmd("-show", reportPath, "-series", seriesPath, "-k", "8")
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut)
		}
		return out
	}
	a, b := snap(), snap()
	if a != b {
		t.Fatalf("same artifacts rendered different bytes:\n%q\n%q", a, b)
	}
	for _, want := range []string{
		"top-test/SmartDS-1#0",
		"req/s",
		"125000",
		"ttr:1ms",
		"restart:mt ttr 2ms over ceiling 1ms",
		"latency blame top-test/SmartDS-1#0",
		"mt/compress.engine",
		`smartds_demo_total{design="SmartDS-1",exp="top-test",run="0"}`,
		"▁", "█", // sparkline engaged
	} {
		if !strings.Contains(a, want) {
			t.Errorf("snapshot missing %q:\n%s", want, a)
		}
	}
}

// TestShowNoAlerts covers the clean-run rendering: an explicit "none
// fired" alert section, and no series section without a series file.
func TestShowNoAlerts(t *testing.T) {
	path := writeReport(t, t.TempDir(), "clean", cleanRun("CPU-only"))
	code, out, errOut := runCmd("-show", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "SLO alerts: none fired") {
		t.Errorf("clean run should say no alerts fired:\n%s", out)
	}
	if strings.Contains(out, "series") {
		t.Errorf("series section rendered without a series file:\n%s", out)
	}
}

// TestSparkline pins the bar scaling and downsampling behavior.
func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "-" {
		t.Fatalf("empty sparkline %q, want -", got)
	}
	pts := []telemetry.Point{{At: 0, Value: 0}, {At: 1, Value: 1}, {At: 2, Value: 2}}
	if got := sparkline(pts, 10); got != "▁▄█" {
		t.Fatalf("ramp sparkline %q, want ▁▄█", got)
	}
	// Constant series renders all-low, not NaN garbage.
	flat := []telemetry.Point{{Value: 5}, {Value: 5}, {Value: 5}}
	if got := sparkline(flat, 10); got != "▁▁▁" {
		t.Fatalf("flat sparkline %q", got)
	}
	// Downsampling keeps the most recent point.
	var long []telemetry.Point
	for i := 0; i < 100; i++ {
		long = append(long, telemetry.Point{At: float64(i), Value: float64(i)})
	}
	got := sparkline(long, 10)
	if len([]rune(got)) > 10 || !strings.HasSuffix(got, "█") {
		t.Fatalf("downsampled sparkline %q should end at the max", got)
	}
}

// TestSLOGate pins -slo's exit codes: 1 with the alert table on a
// report whose run fired an alert, 0 on a clean one.
func TestSLOGate(t *testing.T) {
	dir := t.TempDir()
	fired, _ := writeFixture(t, dir)
	code, out, errOut := runCmd("-slo", fired)
	if code != 1 || !strings.Contains(out, "ttr:1ms") || !strings.Contains(errOut, "SLO gate FAILED: 1 alerts fired") {
		t.Fatalf("fired alert: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	clean := writeReport(t, dir, "clean", cleanRun("CPU-only"))
	code, _, errOut = runCmd("-slo", clean)
	if code != 0 || !strings.Contains(errOut, "SLO gate passed: no alerts fired across 1 runs") {
		t.Fatalf("clean run: exit %d, stderr %q", code, errOut)
	}
}

// TestGateMissingRun pins that a baseline run missing from the current
// report fails the regression gate.
func TestGateMissingRun(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base", cleanRun("CPU-only", "SmartDS-1"))
	cur := writeReport(t, dir, "cur", cleanRun("CPU-only"))
	code, _, errOut := runCmd("-baseline", base, cur)
	if code != 1 || !strings.Contains(errOut, "clean/SmartDS-1#0: present in baseline but missing from current report") {
		t.Fatalf("missing run: exit %d, stderr %q", code, errOut)
	}
	if code, _, errOut := runCmd(base, base); code != 0 {
		t.Fatalf("identical reports: exit %d, stderr %q", code, errOut)
	}
}

// oldReport is a report in the layout written before the top-level
// "counters" and "series" sections were dropped.
const oldReport = `{
  "schema": "smartds-run-report/v1",
  "name": "fig7",
  "seed": 42,
  "quick": true,
  "runs": [
    {
      "experiment": "clean",
      "design": "CPU-only",
      "seq": 0,
      "seed": 1,
      "duration_sec": 0.001,
      "requests": 100,
      "errors": 0,
      "throughput_bytes_per_sec": 1000000000,
      "req_per_sec": 100000,
      "sim_events": 0,
      "latency": {"count": 100, "mean_sec": 0, "p50_sec": 0, "p99_sec": 0, "p999_sec": 5e-05, "max_sec": 0},
      "counters": {"smartds_port_tx_bytes_per_sec{port=\"0\"}": 0}
    }
  ],
  "counters": [
    {"name": "smartds_port_tx_bytes_per_sec", "labels": {"port": "0"}, "kind": "gauge", "value": 0}
  ],
  "series": [
    {"name": "smartds_port_tx_bytes_per_sec", "labels": {"port": "0"},
     "digest": {"points": 1, "first": 0, "last": 0, "min": 0, "max": 0, "mean": 0}}
  ]
}
`

// TestOldFormatReportLoads pins that a report carrying the dropped
// sections still loads: -show renders it, and it gates against a
// report in the current layout.
func TestOldFormatReportLoads(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(oldReport), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCmd("-show", old)
	if code != 0 || !strings.Contains(out, "clean/CPU-only#0") {
		t.Fatalf("-show old report: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	cur := writeReport(t, dir, "cur", cleanRun("CPU-only"))
	if code, _, errOut := runCmd("-baseline", old, cur); code != 0 {
		t.Fatalf("gate against old baseline: exit %d, stderr %q", code, errOut)
	}
}
