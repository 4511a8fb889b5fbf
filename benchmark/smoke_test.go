package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child: the
// parent re-executes os.Executable() with -child first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], time.Now(), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const specPath = "../BENCHMARK.json"

func TestSpecDeclaresValidMetrics(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not an end-to-end metric")
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark runs %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestSpecRejectsBadDefinitions(t *testing.T) {
	good, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mutate := map[string]func(s *spec){
		"bad name":         func(s *spec) { s.PerLayer[0].Name = "sim events" },
		"repeated name":    func(s *spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"bound too large":  func(s *spec) { s.EndToEnd[0].Bound = 0.3 },
		"unknown workload": func(s *spec) { s.Workloads[0].Name = "nope" },
		"too many e2e": func(s *spec) {
			for len(s.EndToEnd) <= 16 {
				m := s.EndToEnd[0]
				m.Name += "x"
				s.EndToEnd = append(s.EndToEnd, m)
			}
		},
	}
	for name, f := range mutate {
		s := *good
		s.EndToEnd = append([]metricSpec(nil), good.EndToEnd...)
		s.PerLayer = append([]metricSpec(nil), good.PerLayer...)
		s.Workloads = append([]specLoad(nil), good.Workloads...)
		f(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSmoke runs every workload through the child path for 200 µs of
// virtual time, traced, and checks that the run passes its own gates
// and produces exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", specPath, "-seconds", "0", "-virtual", "200e-6", "-out", out},
		time.Now(), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in results, want %d", len(res.Workloads), len(workloads))
	}
	for _, wr := range res.Workloads {
		sameNames(t, wr.Name+" end-to-end", wr.EndToEnd, sp.EndToEnd)
		sameNames(t, wr.Name+" per-layer", wr.PerLayer, sp.PerLayer)
		if len(wr.Reps) < minReps || wr.Attempted == 0 || wr.Failed != 0 || len(wr.Problems) > 0 {
			t.Errorf("%s: %d reps, %d attempted, %d failed, problems %v",
				wr.Name, len(wr.Reps), wr.Attempted, wr.Failed, wr.Problems)
		}
		if wr.PerLayer["sim.cpu_share"] <= 0 {
			t.Errorf("%s: no profile samples in the simulator core", wr.Name)
		}
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		declared[m.Name] = true
	}
	printed := regexp.MustCompile(`^[a-z0-9-]+: ([A-Za-z0-9_.-]+) = `)
	for _, line := range strings.Split(stdout.String(), "\n") {
		if m := printed.FindStringSubmatch(line); m != nil && !declared[m[1]] {
			t.Errorf("printed metric %s is not declared in BENCHMARK.json", m[1])
		}
	}
}

// TestResultLine runs one workload the way BENCHMARK.json's command
// does and checks the last line of its output.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", specPath, "--workload", "open-bf2", "--seed", "3", "--seconds", "0",
		"--trace", "0", "-virtual", "200e-6"}, time.Now(), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted == 0 || line.Failed != 0 || len(line.Metrics) != len(sp.EndToEnd) {
		t.Errorf("result line: %+v", line)
	}
	for _, m := range sp.EndToEnd {
		v, ok := line.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("metric %s: %+v (declared unit %s)", m.Name, v, m.Unit)
		}
	}
}

// sameNames checks that a run produced exactly the declared metrics.
func sameNames(t *testing.T, what string, got map[string]float64, want []metricSpec) {
	t.Helper()
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			t.Errorf("%s: declared metric %s not produced", what, m.Name)
		}
	}
	for k := range got {
		if !declared[k] {
			t.Errorf("%s: metric %s produced but not declared", what, k)
		}
	}
}
