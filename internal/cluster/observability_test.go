package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// sloCampaign runs one fault campaign under an SLO spec and returns
// the fired alerts and the telemetry report JSON.
func sloCampaign(t *testing.T, spec string) ([]slo.Alert, []byte) {
	t.Helper()
	reg := telemetry.NewRegistry()

	cfg := DefaultConfig(middletier.SmartDS)
	cfg.Seed = 7
	cfg.NumStorage = 5
	cfg.MT.ReplicateTimeout = 1.5e-3
	cfg.Telemetry = reg
	cfg.TelemetryExp = "slo-test"
	cfg.SLO = slo.MustParse(spec)
	c := New(cfg)

	// A middle-tier restart halts all service for its window, so the
	// first post-fault completion — the monitor's TTR — lands well past
	// the 1 ms ceiling (a storage crash reroutes in microseconds and
	// would not burn TTR budget).
	sched := faults.MustParse("restart:mt@4ms+2ms")
	if _, err := c.ApplyFaults(sched); err != nil {
		t.Fatalf("ApplyFaults: %v", err)
	}
	res := c.Run(Workload{Window: 8, Warmup: 1e-3, Measure: 12e-3})
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	rep, err := json.Marshal(reg.BuildReport("slo-test", cfg.Seed, true, nil))
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return res.Alerts, rep
}

// TestSLOAlertsDeterministic pins the acceptance path end to end: a
// fault campaign whose recovery blows a 1 ms TTR ceiling fires an
// alert, the alert lands in the telemetry run record (what the
// smartds-report -slo gate reads), and two same-seed runs produce
// byte-identical alert lists and reports.
func TestSLOAlertsDeterministic(t *testing.T) {
	const spec = "ttr:1ms"
	alertsA, repA := sloCampaign(t, spec)
	alertsB, repB := sloCampaign(t, spec)

	if len(alertsA) == 0 {
		t.Fatal("fault campaign fired no TTR alert")
	}
	found := false
	for _, al := range alertsA {
		if al.Kind == "ttr" && al.BurnShort > 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ttr alert over ceiling in %+v", alertsA)
	}

	ja, _ := json.Marshal(alertsA)
	jb, _ := json.Marshal(alertsB)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("alerts differ across same-seed runs:\n%s\n%s", ja, jb)
	}
	if !bytes.Equal(repA, repB) {
		t.Fatal("telemetry reports differ across same-seed runs")
	}

	// The record the report gate reads must carry the alert.
	var rep telemetry.Report
	if err := json.Unmarshal(repA, &rep); err != nil {
		t.Fatalf("report round-trip: %v", err)
	}
	fired := 0
	for _, run := range rep.Runs {
		fired += len(run.Alerts)
	}
	if fired == 0 {
		t.Fatal("report runs carry no alerts — smartds-report -slo gate would pass wrongly")
	}
}

// TestSampledTracingCluster pins head sampling at the cluster level: a
// 1% rate keeps far fewer spans than full tracing, the same seed keeps
// the same spans, and the run record's critpath exemplars name
// requests the tracer kept.
func TestSampledTracingCluster(t *testing.T) {
	runOnce := func(rate float64) (spans int, cp *telemetry.CritpathSummary, kept map[string]bool) {
		tr := trace.New(1 << 20) // big enough that the ring never wraps
		tr.SetSampling(rate, 42)
		reg := telemetry.NewRegistry()
		cfg := DefaultConfig(middletier.SmartDS)
		cfg.Seed = 11
		cfg.Trace = tr
		cfg.Telemetry = reg
		cfg.TelemetryExp = "sample-test"
		c := New(cfg)
		res := c.Run(Workload{Window: 8, Warmup: 1e-3, Measure: 8e-3})
		if res.Requests == 0 {
			t.Fatal("no requests completed")
		}
		kept = map[string]bool{}
		for _, ev := range tr.Events() {
			if ev.Req != 0 {
				kept[telemetry.FormatTraceID(ev.Req)] = true
			}
		}
		return len(tr.Events()), reg.Runs()[0].Critpath, kept
	}

	full, fullCP, _ := runOnce(1)
	sampled, sampledCP, sampledKept := runOnce(0.01)
	if sampled >= full/10 {
		t.Fatalf("1%% sampling kept %d of %d spans — head sampling not engaged", sampled, full)
	}
	if full == 0 || fullCP == nil || fullCP.P999 == nil {
		t.Fatalf("full tracing recorded %d spans, critpath %+v", full, fullCP)
	}
	// The sampled run's exemplar comes only from a kept trace.
	if sampledCP == nil || sampledCP.P999 == nil {
		t.Fatalf("sampled run record carries no critpath p999: %+v", sampledCP)
	}
	if !sampledKept[sampledCP.P999.TraceID] {
		t.Fatalf("sampled p999 exemplar %s is not a kept request", sampledCP.P999.TraceID)
	}

	again, _, _ := runOnce(0.01)
	if again != sampled {
		t.Fatalf("same-seed sampled runs kept %d vs %d spans", again, sampled)
	}
}
