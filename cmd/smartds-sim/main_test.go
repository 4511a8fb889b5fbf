package main

import (
	"os"
	"path/filepath"
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
