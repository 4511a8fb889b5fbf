package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/trace"
)

// smallCfg returns a quick functional cluster config.
func smallCfg(kind middletier.Kind) Config {
	cfg := DefaultConfig(kind)
	if kind == middletier.SmartDS {
		cfg.MT.HBM = device.MemoryConfig{Capacity: 256 << 20}
		cfg.MT.SmartDSInflight = 32
	}
	return cfg
}

func runSmall(t *testing.T, kind middletier.Kind, w Workload) (*Cluster, Results) {
	t.Helper()
	c := New(smallCfg(kind))
	if w.Measure == 0 {
		w = Workload{Window: 16, Warmup: 2e-3, Measure: 10e-3}
	}
	res := c.Run(w)
	if res.Requests == 0 {
		t.Fatalf("%v served no requests", kind)
	}
	if res.Errors != 0 {
		t.Fatalf("%v returned %d errors", kind, res.Errors)
	}
	return c, res
}

func TestAllKindsServeWrites(t *testing.T) {
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c, res := runSmall(t, kind, Workload{})
			if res.Lat.Mean <= 0 {
				t.Fatal("no latency recorded")
			}
			// Every write really landed on all three storage servers.
			for i, srv := range c.Storage {
				if srv.Writes == 0 {
					t.Fatalf("storage server %d received no writes", i)
				}
			}
			t.Logf("%v: %s, %.0f req/s, lat %v", kind,
				metrics.FormatGbps(res.Throughput), res.ReqPerSec, res.Lat)
		})
	}
}

func TestFunctionalDataIntegrity(t *testing.T) {
	// Writes then reads with CRC verification end to end, on the two
	// extreme designs.
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.SmartDS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := smallCfg(kind)
			c := New(cfg)
			for _, srv := range c.Storage {
				srv.Verify = true
			}
			res := c.Run(Workload{Window: 8, Warmup: 2e-3, Measure: 20e-3, ReadFraction: 0.3})
			if res.Errors != 0 {
				t.Fatalf("errors: %d", res.Errors)
			}
			if res.VerifyMismatches != 0 {
				t.Fatalf("read verification mismatches: %d", res.VerifyMismatches)
			}
			if c.MT.ReadsDone == 0 {
				t.Fatal("no reads served")
			}
		})
	}
}

func TestSmartDSBeatsCPUOnlyAtTwoCores(t *testing.T) {
	// The headline: with 2 host cores, SmartDS-1 delivers far more
	// write throughput than CPU-only (whose two cores can compress
	// ~4-5 Gbps of blocks).
	runKind := func(kind middletier.Kind) Results {
		cfg := smallCfg(kind)
		cfg.MT.Workers = 2
		c := New(cfg)
		return c.Run(Workload{Window: 64, Warmup: 3e-3, Measure: 20e-3})
	}
	cpu := runKind(middletier.CPUOnly)
	sds := runKind(middletier.SmartDS)
	t.Logf("CPU-only: %s, SmartDS-1: %s",
		metrics.FormatGbps(cpu.Throughput), metrics.FormatGbps(sds.Throughput))
	if sds.Throughput < 3*cpu.Throughput {
		t.Fatalf("SmartDS (%s) should dwarf CPU-only (%s) at 2 cores",
			metrics.FormatGbps(sds.Throughput), metrics.FormatGbps(cpu.Throughput))
	}
}

func TestSmartDSBarelyTouchesHostMemoryAndPCIe(t *testing.T) {
	cfg := smallCfg(middletier.SmartDS)
	c := New(cfg)
	res := c.Run(Workload{Window: 64, Warmup: 3e-3, Measure: 20e-3})
	// The paper's §5.5 estimate: SmartDS-6 uses 49 Gbps host memory and
	// 12.4 Gbps PCIe to serve 348 Gbps of storage traffic (~14% / ~4%).
	// Only headers, completions, and acks cross to the host.
	hostTraffic := res.MemReadRate + res.MemWriteRate
	if hostTraffic > 0.2*res.Throughput {
		t.Fatalf("SmartDS host memory traffic %s vs payload %s: split not working",
			metrics.FormatGbps(hostTraffic), metrics.FormatGbps(res.Throughput))
	}
	pcieTraffic := res.SDSH2D + res.SDSD2H
	if pcieTraffic > 0.2*res.Throughput {
		t.Fatalf("SmartDS PCIe traffic %s vs payload %s",
			metrics.FormatGbps(pcieTraffic), metrics.FormatGbps(res.Throughput))
	}
}

func TestCPUOnlyScalesWithCores(t *testing.T) {
	run := func(workers int) float64 {
		cfg := smallCfg(middletier.CPUOnly)
		cfg.MT.Workers = workers
		c := New(cfg)
		res := c.Run(Workload{Window: 4 * workers, Warmup: 3e-3, Measure: 15e-3})
		return res.Throughput
	}
	t2 := run(2)
	t8 := run(8)
	t.Logf("CPU-only 2 cores: %s, 8 cores: %s", metrics.FormatGbps(t2), metrics.FormatGbps(t8))
	if t8 < 2.5*t2 {
		t.Fatalf("CPU-only did not scale with cores: %g -> %g", t2, t8)
	}
	// 2 cores compress ~4.2 Gbps; sanity-check the absolute value.
	gbps2 := metrics.BytesPerSecToGbps(t2)
	if gbps2 < 2 || gbps2 > 7 {
		t.Fatalf("CPU-only 2-core throughput %.1f Gbps outside the plausible band", gbps2)
	}
}

func TestBypassSkipsCompression(t *testing.T) {
	cfg := smallCfg(middletier.SmartDS)
	c := New(cfg)
	res := c.Run(Workload{Window: 8, Warmup: 2e-3, Measure: 10e-3, BypassFraction: 1.0})
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	if c.MT.BypassHits == 0 {
		t.Fatal("bypass flag ignored")
	}
	// Engine processed nothing.
	inst, _ := c.MT.Device().OpenRoCEInstance(0)
	if inst.Engine().Processed() > 0 {
		t.Fatal("bypass writes still hit the compression engine")
	}
}

func TestFailoverReroutesWrites(t *testing.T) {
	cfg := smallCfg(middletier.CPUOnly)
	cfg.NumStorage = 5
	c := New(cfg)
	c.MT.SetServerDown(0, true)
	res := c.Run(Workload{Window: 8, Warmup: 2e-3, Measure: 10e-3})
	if res.Errors != 0 {
		t.Fatalf("errors with server down: %d", res.Errors)
	}
	if c.Storage[0].Writes != 0 {
		t.Fatal("down server still received writes")
	}
	// Chunk-level placement pins each chunk to 3 servers; the client's
	// sequential LBAs live in one chunk, so exactly one healthy replica
	// set (3 of the 4 healthy servers) carries the load.
	served := 0
	for i := 1; i < 5; i++ {
		if c.Storage[i].Writes > 0 {
			served++
		}
	}
	if served < 3 {
		t.Fatalf("only %d healthy servers received writes, want >= 3", served)
	}
}

func TestMaintenanceServicesRun(t *testing.T) {
	cfg := smallCfg(middletier.CPUOnly)
	c := New(cfg)
	m := c.MT.StartMaintenance(c.Storage)
	// 105 ms of virtual time: compaction runs every 10 ms, GC every
	// 50 ms, and the 100 ms snapshot fires once.
	res := c.Run(Workload{Window: 8, Warmup: 2e-3, Measure: 103e-3})
	m.Stop()
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	if m.CompactionPasses == 0 || m.Snapshots == 0 {
		t.Fatalf("maintenance idle: compaction=%d snapshots=%d", m.CompactionPasses, m.Snapshots)
	}
}

func TestModeledModeMatchesShape(t *testing.T) {
	// Modeled (non-functional) runs must work and give the same order
	// of magnitude as functional runs.
	cfg := smallCfg(middletier.CPUOnly)
	cfg.Functional = false
	c := New(cfg)
	res := c.Run(Workload{Window: 16, Warmup: 2e-3, Measure: 10e-3})
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("modeled run failed: %+v", res)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Results {
		c := New(smallCfg(middletier.SmartDS))
		return c.Run(Workload{Window: 16, Warmup: 2e-3, Measure: 10e-3})
	}
	a, b := run(), run()
	if a.Requests != b.Requests || a.Lat.Mean != b.Lat.Mean || a.Throughput != b.Throughput {
		t.Fatalf("nondeterministic cluster runs:\n%+v\n%+v", a, b)
	}
}

func TestRequestTracing(t *testing.T) {
	cfg := smallCfg(middletier.SmartDS)
	cfg.Trace = trace.New(1 << 14)
	c := New(cfg)
	c.Run(Workload{Window: 8, Warmup: 2e-3, Measure: 6e-3, ReadFraction: 0.2})
	evs := cfg.Trace.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	// Per-label span count and total duration. Spans carry a span or
	// request id; counter samples, Emit instants and end-unmatched
	// markers do not and are skipped.
	type agg struct {
		count int
		sum   float64
	}
	spans := map[string]*agg{}
	for _, ev := range evs {
		if ev.Counter || (ev.ID == 0 && ev.Req == 0) {
			continue
		}
		label := ev.Component + "/" + ev.Name
		if spans[label] == nil {
			spans[label] = &agg{}
		}
		spans[label].count++
		spans[label].sum += ev.Dur
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for label, a := range spans {
		if a.count <= 0 || a.sum/float64(a.count) <= 0 {
			t.Fatalf("degenerate span %s: count %d, mean %g", label, a.count, a.sum/float64(a.count))
		}
	}
	w := spans["client0/write"]
	if w == nil {
		t.Fatalf("client0/write span missing: %v", spans)
	}
	// Client-observed span means are storage-latency scale.
	if mean := w.sum / float64(w.count); mean < 1e-6 || mean > 1e-2 {
		t.Fatalf("implausible write span mean %g", mean)
	}
}

func TestAdaptiveEffortImprovesRatioWhenIdle(t *testing.T) {
	// At light load the adaptive policy spends more effort, so stored
	// bytes shrink versus the fixed-fast baseline on the same blocks.
	run := func(adaptive bool, level int) float64 {
		cfg := smallCfg(middletier.CPUOnly)
		cfg.MT.AdaptiveEffort = adaptive
		if level > 0 {
			cfg.MT.Level = lz4.Level(level)
		}
		cfg.MT.Workers = 8
		c := New(cfg)
		// Window 1: the compressor is always idle when a request arrives.
		c.Run(Workload{Window: 1, Warmup: 2e-3, Measure: 15e-3})
		if c.MT.WritesDone == 0 {
			t.Fatal("no writes served")
		}
		return c.MT.BytesStored / float64(c.MT.WritesDone)
	}
	fast := run(false, 1)
	adaptive := run(true, 1)
	t.Logf("stored bytes/write: fast=%.0f adaptive=%.0f", fast, adaptive)
	if adaptive >= fast {
		t.Fatalf("adaptive effort did not improve ratio: %.0f vs %.0f", adaptive, fast)
	}
}

func TestOpenLoopPoissonWorkload(t *testing.T) {
	cfg := smallCfg(middletier.SmartDS)
	cfg.Functional = false
	c := New(cfg)
	const rate = 200000 // req/s, far below capacity
	res := c.Run(Workload{Rate: rate, Warmup: 4e-3, Measure: 20e-3})
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	// Arrival rate within 15% of the requested Poisson rate.
	if res.ReqPerSec < rate*0.85 || res.ReqPerSec > rate*1.15 {
		t.Fatalf("open-loop rate %.0f, want ~%d", res.ReqPerSec, rate)
	}
	// Under light load, latency is unqueued: far below the closed-loop
	// saturation latencies.
	if res.Lat.Mean > 60e-6 {
		t.Fatalf("light-load latency %v implausibly high", res.Lat.Mean)
	}
}

func TestOpenLoopOverload(t *testing.T) {
	// An open-loop rate far above capacity must not wedge the cluster:
	// throughput caps at capacity and the run still completes.
	cfg := smallCfg(middletier.CPUOnly)
	cfg.Functional = false
	cfg.MT.Workers = 2 // ~4.2 Gbps capacity = ~128k req/s
	c := New(cfg)
	res := c.Run(Workload{Rate: 400000, Warmup: 2e-3, Measure: 8e-3})
	if res.Errors != 0 {
		t.Fatalf("errors: %d", res.Errors)
	}
	served := res.ReqPerSec
	if served > 200000 {
		t.Fatalf("overloaded middle tier served %.0f req/s, above its capacity", served)
	}
	if served < 50000 {
		t.Fatalf("overloaded middle tier collapsed to %.0f req/s", served)
	}
}

// TestSmartDSHBMExhaustionFailsRequests sizes a SmartDS card's HBM to
// hold its receive-descriptor pools and almost nothing else: compressed
// writes find no room for their output and reads none for their block,
// yet the run must finish with those requests answered as errors, not a
// panic, while latency-sensitive writes (which ship straight from the
// descriptor buffer) still succeed.
func TestSmartDSHBMExhaustionFailsRequests(t *testing.T) {
	c := New(hbmStarvedCfg())
	res := c.Run(hbmStarvedLoad)
	if res.Requests == 0 || res.Errors == 0 || res.Errors == res.Requests {
		t.Fatalf("want a mix of failed and served requests, got %d requests, %d errors", res.Requests, res.Errors)
	}
	if c.MT.BypassHits == 0 || c.MT.ReadsDone == 0 {
		t.Fatalf("bypass writes %d, reads %d: both paths must run", c.MT.BypassHits, c.MT.ReadsDone)
	}
}

// hbmStarvedCfg is a modeled SmartDS cluster whose HBM holds its
// receive-descriptor pools and almost nothing else.
func hbmStarvedCfg() Config {
	cfg := smallCfg(middletier.SmartDS)
	cfg.Functional = false
	cfg.MT.SmartDSInflight = 8
	bs := cfg.MT.BlockSize
	pools := cfg.MT.SmartDSInflight*(bs+1024) +
		cfg.NumStorage*64*(lz4.CompressBound(bs)+lz4.FrameHeaderSize)
	cfg.MT.HBM = device.MemoryConfig{Capacity: pools + 1024}
	return cfg
}

var hbmStarvedLoad = Workload{Window: 8, Warmup: 0.5e-3, Measure: 2e-3, ReadFraction: 0.3, BypassFraction: 0.3}

// TestThroughputCountsServedRequestsOnly: in a run where some requests
// fail, throughput is the bytes of the requests served OK inside the
// measurement window; a failed request moves no bytes.
func TestThroughputCountsServedRequestsOnly(t *testing.T) {
	cfg := hbmStarvedCfg()
	c := New(cfg)
	var failed uint64
	for _, cl := range c.Clients {
		cl := cl
		cl.completionHook = func(_, _ float64, err bool) {
			if err && cl.measuring {
				failed++
			}
		}
	}
	res := c.Run(hbmStarvedLoad)
	if failed == 0 || failed == res.Requests {
		t.Fatalf("want a mix of failed and served requests in the window, got %d of %d failed", failed, res.Requests)
	}
	served := float64(res.Requests-failed) * float64(cfg.MT.BlockSize)
	if got := res.Throughput * res.Duration; math.Abs(got-served) > 1e-9*served {
		t.Fatalf("throughput counts %.0f bytes, want %.0f: the %d served requests only", got, served, res.Requests-failed)
	}
}

// TestErrorsCountMeasurementWindowOnly: Results.Errors counts the
// failed completions inside this Run's measurement window, as Requests
// counts completions, and none from warm-up, the drain or an earlier
// Run on the same cluster; Results.RunErrors counts all of this Run's.
func TestErrorsCountMeasurementWindowOnly(t *testing.T) {
	c := New(hbmStarvedCfg())
	var inWindow, outside uint64
	for _, cl := range c.Clients {
		cl.completionHook = func(_, _ float64, err bool) {
			switch {
			case !err:
			case cl.measuring:
				inWindow++
			default:
				outside++
			}
		}
	}
	for run := 0; run < 2; run++ {
		inWindow, outside = 0, 0
		res := c.Run(hbmStarvedLoad)
		if inWindow == 0 || outside == 0 {
			t.Fatalf("run %d: want failures inside and outside the window, got %d and %d", run, inWindow, outside)
		}
		if res.Errors != inWindow {
			t.Fatalf("run %d: Results.Errors = %d, want the %d failures inside its window (%d fell outside)",
				run, res.Errors, inWindow, outside)
		}
		if res.RunErrors != inWindow+outside {
			t.Fatalf("run %d: Results.RunErrors = %d, want all %d failures of the run",
				run, res.RunErrors, inWindow+outside)
		}
	}
}

// TestCodecLookaheadInvisible: every design prefetches functional
// writes into the codec lookahead and returns the same results with no
// helper core (GOMAXPROCS=1) and with several (4); helpers start
// exactly when there is a core for them, at most GOMAXPROCS−1 per Run
// since they park between writes instead of exiting, and Run returns
// with no helper alive and no job queued or running, so nothing a
// caller measures after Run overlaps helper work.
func TestCodecLookaheadInvisible(t *testing.T) {
	run := func(kind middletier.Kind, procs int) Results {
		// the lookahead sizes its helper pool from GOMAXPROCS; the test pins it
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := smallCfg(kind)
		if kind == middletier.CPUOnly {
			cfg.MT.Workers = 16
		}
		c := New(cfg)
		res := c.Run(Workload{Window: 128, Warmup: 0.2e-3, Measure: 0.6e-3})
		s := c.MT.CodecStats()
		if s.Helpers != 0 || s.Queued != 0 || s.Running != 0 {
			t.Fatalf("%v at GOMAXPROCS=%d: Run returned with helper work left: %+v", kind, procs, s)
		}
		if (s.Started > 0) != (procs > 1) || s.Started > uint64(procs-1) {
			t.Fatalf("%v at GOMAXPROCS=%d started %d helpers, want 1 to GOMAXPROCS-1 (none at 1)", kind, procs, s.Started)
		}
		return res
	}
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		one, four := run(kind, 1), run(kind, 4)
		if one.Requests == 0 || !reflect.DeepEqual(one, four) {
			t.Fatalf("%v: results differ between GOMAXPROCS=1 and 4:\n%+v\n%+v", kind, one, four)
		}
	}
}
