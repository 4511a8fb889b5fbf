package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/telemetry"
)

// telemetryRun executes one small instrumented run and returns the
// registry plus the cluster's results.
func telemetryRun(t *testing.T, kind middletier.Kind, faultSpec string) (*telemetry.Registry, Results) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := smallCfg(kind)
	cfg.Functional = false
	cfg.Telemetry = reg
	cfg.TelemetryExp = "test"
	c := New(cfg)
	if faultSpec != "" {
		sched, err := faults.Parse(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ApplyFaults(sched); err != nil {
			t.Fatal(err)
		}
	}
	res := c.Run(Workload{Window: 16, Warmup: 2e-3, Measure: 8e-3})
	return reg, res
}

func TestTelemetryWiring(t *testing.T) {
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			reg, res := telemetryRun(t, kind, "")
			runs := reg.Runs()
			if len(runs) != 1 {
				t.Fatalf("run records = %d, want 1", len(runs))
			}
			rr := runs[0]
			if rr.Experiment != "test" || rr.Requests != res.Requests ||
				rr.Errors != res.Errors || rr.ThroughputBps != res.Throughput {
				t.Fatalf("run record %+v does not match results %+v", rr, res)
			}
			if rr.Latency.P999 != res.Lat.P999 {
				t.Fatalf("latency summary mismatch")
			}
			// The client-side counter final must agree with the measured
			// request count (both read the same Done counters).
			if got := rr.Counters["smartds_client_requests_total"]; got != float64(res.Requests) {
				t.Fatalf("counter final %g != measured requests %d", got, res.Requests)
			}
			// Time series were sampled over an 8 ms window on the default
			// 100 µs cadence: every scope counter/gauge has points.
			var js bytes.Buffer
			if err := reg.WriteSeriesJSON(&js); err != nil {
				t.Fatal(err)
			}
			series, err := telemetry.ReadSeriesJSON(&js)
			if err != nil {
				t.Fatal(err)
			}
			if len(series) == 0 {
				t.Fatalf("no sampled series in the series file")
			}
			for _, se := range series {
				if se.Digest.Points == 0 || len(se.Points) != se.Digest.Points {
					t.Fatalf("series %s%v sampled %d points (digest %d)", se.Name, se.Labels, len(se.Points), se.Digest.Points)
				}
			}
			// Designs with hardware engines record engine and HBM
			// counters in the run record.
			if kind == middletier.BF2 || kind == middletier.SmartDS {
				if _, ok := rr.Counters[`smartds_engine_bytes_total{engine="0"}`]; !ok {
					t.Fatalf("%v run record has no engine counter: %v", kind, rr.Counters)
				}
				if _, ok := rr.Counters["smartds_hbm_bytes_total"]; !ok {
					t.Fatalf("%v run record has no HBM counter: %v", kind, rr.Counters)
				}
			}
		})
	}
}

// TestTelemetryReadsArePure reads every instrument a cluster run
// registers twice at one virtual instant, mid-run under load, and
// requires the same value both times: no instrument may keep state
// that a read advances, or its value would depend on who read last
// (the sampler or the run record).
func TestTelemetryReadsArePure(t *testing.T) {
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg := smallCfg(kind)
			cfg.Functional = false
			cfg.Telemetry = reg
			c := New(cfg)
			checked := 0
			// Off the 100 µs sampling grid, so a sampler read lies
			// between this instant and the last one.
			c.Env.At(4.05e-3, func() {
				for _, m := range reg.Metrics() {
					if a, b := m.Value(), m.Value(); a != b {
						t.Errorf("%s reads %g then %g at one instant", m.Name(), a, b)
					}
					checked++
				}
			})
			if res := c.Run(Workload{Window: 16, Warmup: 2e-3, Measure: 4e-3}); res.Requests == 0 {
				t.Fatal("no requests completed")
			}
			if checked == 0 {
				t.Fatal("no instrument was read mid-run")
			}
		})
	}
}

func TestTelemetryFaultSummaryAttached(t *testing.T) {
	reg, _ := telemetryRun(t, middletier.SmartDS, "crash:ss0@3ms+2ms")
	rr := reg.Runs()[0]
	if rr.Faults == nil {
		t.Fatalf("no fault summary on run record")
	}
	if len(rr.Faults.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v, want 1 entry", rr.Faults.Recoveries)
	}
	ttr := rr.Faults.Recoveries[0]
	if ttr.Kind != "crash" || ttr.Target != "ss0" || ttr.Start != 3e-3 {
		t.Fatalf("TTR = %+v", ttr)
	}
	if ttr.TimeToRecover < 0 {
		t.Fatalf("service never recovered: %+v", ttr)
	}
	// Transport and degraded-mode counters must have registered the
	// campaign: go-back-N retransmitted into the dark server, and the
	// middle tier placed writes on fewer replicas while it was gone.
	var retransmits float64
	for name, v := range rr.Counters { // integer-valued counters, the sum is order-independent
		if strings.HasPrefix(name, "smartds_rdma_retransmits_total") {
			retransmits += v
		}
	}
	if retransmits == 0 {
		t.Fatalf("no retransmits recorded despite storage crash: %v", rr.Counters)
	}
	if rr.Counters["smartds_mt_degraded_total"] == 0 {
		t.Fatalf("no degraded placements recorded despite storage crash: %v", rr.Counters)
	}
}

// TestTelemetryGoldenDeterminism pins the telemetry contract: two
// same-seed instrumented runs produce byte-identical run reports and
// series files. Runs under CI's -count=1 golden step.
func TestTelemetryGoldenDeterminism(t *testing.T) {
	artifact := func() (string, string) {
		reg, _ := telemetryRun(t, middletier.SmartDS, "crash:ss0@3ms+2ms")
		rep := reg.BuildReport("golden", 42, true, map[string]string{"exp": "test"})
		var rj, sj bytes.Buffer
		if err := telemetry.WriteReport(&rj, rep); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteSeriesJSON(&sj); err != nil {
			t.Fatal(err)
		}
		return rj.String(), sj.String()
	}
	rep1, series1 := artifact()
	rep2, series2 := artifact()
	if rep1 != rep2 {
		t.Fatalf("same-seed run reports differ:\n--- first ---\n%.2000s\n--- second ---\n%.2000s", rep1, rep2)
	}
	if series1 != series2 {
		t.Fatalf("same-seed series files differ:\n--- first ---\n%.2000s\n--- second ---\n%.2000s", series1, series2)
	}
}

// TestTotalSeriesNonDecreasing checks the counter contract the _total
// suffix names: every sampled _total series of a run under a storage
// crash (retransmits, degraded writes, rebuild bytes all move) never
// decreases, for all four designs.
func TestTotalSeriesNonDecreasing(t *testing.T) {
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		t.Run(kind.String(), func(t *testing.T) {
			reg, _ := telemetryRun(t, kind, "crash:ss0@3ms+2ms")
			var js bytes.Buffer
			if err := reg.WriteSeriesJSON(&js); err != nil {
				t.Fatal(err)
			}
			series, err := telemetry.ReadSeriesJSON(&js)
			if err != nil {
				t.Fatal(err)
			}
			counters := 0
			for _, se := range series {
				if !strings.HasSuffix(se.Name, "_total") {
					continue
				}
				counters++
				for i := 1; i < len(se.Points); i++ {
					if prev, p := se.Points[i-1], se.Points[i]; p.Value < prev.Value {
						t.Fatalf("%s%v fell from %g to %g at t=%g", se.Name, se.Labels, prev.Value, p.Value, p.At)
					}
				}
			}
			if counters == 0 {
				t.Fatal("no _total series in the series file")
			}
		})
	}
}

// TestTelemetryInvisibleDeterminism runs every design in both payload
// modes bare and with a telemetry registry, whose sampler reads every
// gauge on a 100 µs grid, and requires identical results: observing
// the simulation must not move it.
func TestTelemetryInvisibleDeterminism(t *testing.T) {
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		for _, functional := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/functional=%v", kind, functional), func(t *testing.T) {
				t.Parallel()
				run := func(reg *telemetry.Registry) Results {
					cfg := smallCfg(kind)
					cfg.Functional = functional
					cfg.Telemetry = reg
					cfg.TelemetryExp = "invisible"
					return New(cfg).Run(Workload{Window: 64, Warmup: 0.3e-3, Measure: 1.5e-3})
				}
				if bare, observed := run(nil), run(telemetry.NewRegistry()); !reflect.DeepEqual(bare, observed) {
					t.Errorf("registry run differs from the bare run\nbare:     %+v\nobserved: %+v", bare, observed)
				}
			})
		}
	}
}
