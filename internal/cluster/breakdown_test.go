package cluster

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/trace"
)

func runTraced(t *testing.T, kind middletier.Kind, seed uint64) (*trace.Tracer, Results) {
	t.Helper()
	cfg := DefaultConfig(kind)
	cfg.Seed = seed
	cfg.Functional = false
	cfg.Trace = trace.New(1 << 16)
	c := New(cfg)
	res := c.Run(Workload{Window: 16, Warmup: 1e-3, Measure: 5e-3})
	return cfg.Trace, res
}

// writeStages are the spans that tile one client write request in
// virtual time: client issue to middle-tier entry, the four middle-tier
// stages, and the reply's trip back.
var writeStages = []string{
	"net/request",
	"mt/parse",
	"mt/compress",
	"mt/replicate",
	"mt/ack",
	"net/reply",
}

// stageOf folds a sub-span label ("mt/compress.engine",
// "mt/replicate.wait") into the write stage it belongs to.
func stageOf(label string) string {
	if i := strings.IndexByte(label, '.'); i >= 0 {
		return label[:i]
	}
	return label
}

// TestWriteStageBreakdownSumsToE2E checks the critical-path blame of a
// write-only run against the client-observed latency. The segments of
// each request tile its latency exactly, so a gap between stages would
// still sum to 100% as the root's self-time; the check therefore sums
// only the non-root stages and holds them to the measured mean. Every
// write stage must be recorded, and must carry blame wherever it spent
// time: mt/ack is a zero-length span on the CPU-only, Acc and BF2
// designs, which send the reply in the same instant.
func TestWriteStageBreakdownSumsToE2E(t *testing.T) {
	kinds := []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS}
	for _, kind := range kinds {
		tr, res := runTraced(t, kind, 42)
		evs := tr.Events()
		a := critpath.Analyze(evs)
		if len(a.Paths) == 0 {
			t.Fatalf("%v: no request paths to blame", kind)
		}
		roots := map[string]bool{}
		for _, p := range a.Paths {
			roots[p.RootName] = true
		}
		blamed := map[string]int64{}
		var sumOfMeans float64
		for _, sb := range a.Stages {
			if roots[sb.Stage] {
				continue
			}
			blamed[stageOf(sb.Stage)] += sb.TotalPS
			sumOfMeans += sb.MeanSec
		}
		recorded := map[string]int{}
		spent := map[string]float64{}
		for _, ev := range evs {
			if ev.Req == 0 || ev.Kind == trace.KindRoot {
				continue
			}
			st := stageOf(ev.Component + "/" + ev.Name)
			recorded[st]++
			spent[st] += ev.Dur
		}
		for _, st := range writeStages {
			switch {
			case recorded[st] == 0:
				t.Errorf("%v: stage %s never recorded", kind, st)
			case spent[st] > 0 && blamed[st] == 0:
				t.Errorf("%v: stage %s spent %g s but carries no blame", kind, st, spent[st])
			}
		}
		if cov := sumOfMeans / res.Lat.Mean; math.Abs(cov-1) > 0.10 {
			t.Errorf("%v: stage means cover %.1f%% of the measured e2e mean (sum %g, e2e %g)",
				kind, 100*cov, sumOfMeans, res.Lat.Mean)
		}
	}
}

func TestTracedRunLeaksNoSpans(t *testing.T) {
	tr, res := runTraced(t, middletier.SmartDS, 7)
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("run did no work: %+v", res)
	}
	// The drain grace period lets every inflight request unwind, so all
	// Begin/End pairs must have matched.
	if open := tr.OpenSpans(); open != 0 {
		t.Errorf("open spans after drain = %d", open)
	}
	if tr.Leaked() != 0 {
		t.Errorf("leaked spans = %d", tr.Leaked())
	}
}

func TestChromeTraceFromClusterRun(t *testing.T) {
	tr, _ := runTraced(t, middletier.SmartDS, 42)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Every required write stage appears as matched B/E pairs, and the
	// resource counters made it in.
	begins := map[string]int{}
	ends := map[string]int{}
	counters := map[string]bool{}
	for _, ev := range events {
		name, _ := ev["name"].(string)
		switch ev["ph"] {
		case "B":
			begins[name]++
		case "E":
			ends[name]++
		case "C":
			counters[name] = true
		}
	}
	for _, stage := range []string{"parse", "compress", "replicate", "ack", "request", "reply"} {
		if begins[stage] == 0 || begins[stage] != ends[stage] {
			t.Errorf("stage %q: %d begins, %d ends", stage, begins[stage], ends[stage])
		}
	}
	if !counters["mt.mem.read Gbps"] || !counters["mt.sds.pcie.h2d Gbps"] {
		t.Errorf("missing counter tracks, got %v", counters)
	}
}

func TestTraceDeterministicAcrossRuns(t *testing.T) {
	dump := func() string {
		tr, _ := runTraced(t, middletier.SmartDS, 42)
		var b strings.Builder
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := dump(), dump(); a != b {
		t.Fatal("same-seed runs produced different traces")
	}
}
