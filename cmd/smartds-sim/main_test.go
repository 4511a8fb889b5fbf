package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/cliflags"
	"github.com/disagg/smartds/internal/telemetry"
)

// TestConfigAppliesObservabilityFlags: a -config scenario honours the
// shared observability flags like a flag-built run does.
func TestConfigAppliesObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	scenario := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(scenario, []byte(`{"kind": "smartds", "warmup_ms": 1, "measure_ms": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.json")
	traceFile := filepath.Join(dir, "trace.json")
	code, err := run([]string{"-config", scenario, "-report", report, "-trace", traceFile})
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	rep, err := telemetry.LoadReport(report)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Requests == 0 {
		t.Fatalf("report holds %d runs (first: %+v), want one run with requests", len(rep.Runs), rep.Runs)
	}
	if rep.Config["kind"] != "smartds" {
		t.Fatalf("report config %v, want kind smartds", rep.Config)
	}
	if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
}

// TestCritpathExampleReportsBlame runs exactly the invocation
// smartds-report suggests when a report has no critpath sections, and
// checks that its report has them.
func TestCritpathExampleReportsBlame(t *testing.T) {
	args := strings.Fields(cliflags.CritpathExample)
	if args[0] != "smartds-sim" {
		t.Fatalf("CritpathExample runs %q, want smartds-sim", args[0])
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	code, err := run(args[1:])
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	rep, err := telemetry.LoadReport("report.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rep.Runs {
		if cp := rr.Critpath; cp != nil && cp.Requests > 0 && len(cp.Stages) > 0 {
			return
		}
	}
	t.Fatalf("report from %q has no critpath section", cliflags.CritpathExample)
}

// TestBreakdownPrintsBlame runs a short write-only -breakdown scenario
// and checks the critical-path blame table it prints: the compression
// stage is listed, and the mean% column tiles the end-to-end latency.
func TestBreakdownPrintsBlame(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	code, err := run([]string{"-breakdown", "-reads", "0", "-warmup", "1ms", "-measure", "2ms"})
	os.Stdout = stdout
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "== latency blame ")
	if !ok {
		t.Fatalf("no blame table in -breakdown output:\n%s", data)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	lines := strings.Split(table, "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[1], "stage ") {
		t.Fatalf("malformed blame table:\n%s", table)
	}
	compress := false
	var sum float64
	for _, line := range lines[3:] { // title, header and rule precede the rows
		f := strings.Fields(line) // stage, kind, mean%, p99%, p999%, mean (value and unit)
		if len(f) < 6 {
			t.Fatalf("blame row %q has %d fields, want 6 cells", line, len(f))
		}
		compress = compress || strings.HasPrefix(f[0], "mt/compress")
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64)
		if err != nil {
			t.Fatalf("mean%% cell %q: %v", f[2], err)
		}
		sum += v
	}
	if !compress {
		t.Errorf("blame table does not list mt/compress:\n%s", table)
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("mean%% column sums to %.1f%%, want 100%% ±0.5:\n%s", sum, table)
	}
}

// TestMaintenancePrintsServices runs a short -maintenance scenario and
// checks that the result table reports what the services did.
func TestMaintenancePrintsServices(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	code, err := run([]string{"-kind", "cpu", "-maintenance", "-warmup", "1ms", "-measure", "12ms"})
	os.Stdout = stdout
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(strings.TrimSpace(line), "  "); ok {
			rows[name] = strings.TrimSpace(value)
		}
	}
	for _, name := range []string{"compaction passes", "GC passes", "GC bytes reclaimed", "snapshots"} {
		if _, ok := rows[name]; !ok {
			t.Errorf("result table has no %q row:\n%s", name, data)
		}
	}
	// Compaction runs every 10 ms, so a 13 ms run completes one pass.
	if rows["compaction passes"] != "1" {
		t.Errorf("compaction passes = %q, want 1", rows["compaction passes"])
	}
}
