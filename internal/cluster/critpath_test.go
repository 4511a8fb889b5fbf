package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// allKinds × allProtocols is the full design/protocol matrix the blame
// profiles must hold for.
var critpathKinds = []middletier.Kind{
	middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS,
}

var critpathProtocols = []middletier.Protocol{
	middletier.ProtoPrimary, middletier.ProtoChain, middletier.ProtoQuorum,
}

// TestCritpathTilesExactlyAllDesignsProtocols is the tentpole's core
// invariant at cluster level: for every middle-tier design under every
// replication protocol, every sampled request's critical-path segments
// tile its end-to-end latency EXACTLY — integer picosecond equality,
// not a tolerance — and the blame summary lands in the telemetry run
// record.
func TestCritpathTilesExactlyAllDesignsProtocols(t *testing.T) {
	for _, kind := range critpathKinds {
		for _, proto := range critpathProtocols {
			t.Run(kind.String()+"/"+proto.String(), func(t *testing.T) {
				tr := trace.New(1 << 18)
				reg := telemetry.NewRegistry()
				cfg := DefaultConfig(kind)
				cfg.Seed = 42
				cfg.Functional = false
				cfg.MT.Protocol = proto
				cfg.Trace = tr
				cfg.Telemetry = reg
				cfg.TelemetryExp = "critpath-test"
				c := New(cfg)
				res := c.Run(Workload{Window: 8, Warmup: 1e-3, Measure: 3e-3})
				if res.Requests == 0 || res.Errors != 0 {
					t.Fatalf("run did no clean work: %+v", res)
				}

				a := critpath.Analyze(tr.Events())
				if len(a.Paths) == 0 {
					t.Fatal("no critical paths extracted")
				}
				var total int64
				for _, p := range a.Paths {
					var sum int64
					for _, seg := range p.Segments {
						sum += seg.Dur
					}
					if sum != p.E2E {
						t.Fatalf("req %d: segments sum to %d ps, e2e is %d ps (diff %d)",
							p.Req, sum, p.E2E, p.E2E-sum)
					}
					total += p.E2E
				}
				if total != a.TotalPS {
					t.Fatalf("aggregate total %d != sum of paths %d", a.TotalPS, total)
				}

				// The replication fan-out must be visible on the path: every
				// design/protocol combination records straggler (or hop) wait.
				seen := map[string]bool{}
				for _, sb := range a.Stages {
					seen[sb.Stage] = true
				}
				if !seen["mt/replicate.wait"] {
					t.Errorf("no mt/replicate.wait blame; stages = %v", keys(seen))
				}

				// And the run record must carry the summary the report
				// tooling reads.
				rep := reg.BuildReport("critpath-test", cfg.Seed, true, nil)
				if len(rep.Runs) != 1 || rep.Runs[0].Critpath == nil {
					t.Fatal("run record has no critpath section")
				}
				cp := rep.Runs[0].Critpath
				if cp.Requests != len(a.Paths) || len(cp.Stages) == 0 || cp.P999 == nil {
					t.Fatalf("critpath summary incomplete: %+v", cp)
				}
			})
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCritpathKeepTailCompleteDAGs pins the KeepTail × critpath
// interaction: with head sampling keeping NOTHING (rate 0), the only
// trace records are tail keeps — p999 outliers and errors — and every
// one of them must still form a complete, exactly-tiling DAG.
func TestCritpathKeepTailCompleteDAGs(t *testing.T) {
	t.Run("p999", func(t *testing.T) {
		tr := trace.New(1 << 18)
		tr.SetSampling(0, 42) // tail keeps only
		cfg := DefaultConfig(middletier.SmartDS)
		cfg.Seed = 42
		cfg.Functional = false
		cfg.Trace = tr
		c := New(cfg)
		// Long enough that each client's histogram passes the 512-count
		// threshold guarding p999 keeps.
		res := c.Run(Workload{Window: 16, Warmup: 1e-3, Measure: 8e-3})
		if res.Requests < 1000 {
			t.Fatalf("only %d requests — not enough mass for p999 keeps", res.Requests)
		}
		if tr.KeptTail() == 0 {
			t.Fatal("no tail keeps despite rate-0 sampling over a long run")
		}
		a := critpath.Analyze(tr.Events())
		if len(a.Paths) == 0 {
			t.Fatal("tail-kept requests produced no critical paths")
		}
		for _, p := range a.Paths {
			if p.RootName != "p999" {
				t.Fatalf("unexpected tail root %q (head sampling should keep nothing)", p.RootName)
			}
			var sum int64
			for _, seg := range p.Segments {
				sum += seg.Dur
			}
			if sum != p.E2E || len(p.Segments) == 0 {
				t.Fatalf("tail-kept req %d: incomplete DAG (%d segments, sum %d, e2e %d)",
					p.Req, len(p.Segments), sum, p.E2E)
			}
		}
	})

	t.Run("error", func(t *testing.T) {
		tr := trace.New(1 << 18)
		tr.SetSampling(0, 42)
		cfg := DefaultConfig(middletier.SmartDS)
		cfg.Seed = 42
		cfg.Functional = false
		cfg.MT.ReplicateTimeout = 1e-3
		cfg.Trace = tr
		c := New(cfg)
		// All three storage servers dark: writes become unroutable and
		// err back to the client, which must tail-keep each one.
		if _, err := c.ApplyFaults(faults.MustParse(
			"crash:ss0@2ms+5ms;crash:ss1@2ms+5ms;crash:ss2@2ms+5ms")); err != nil {
			t.Fatal(err)
		}
		res := c.Run(Workload{Window: 8, Warmup: 1e-3, Measure: 6e-3})
		if res.Errors == 0 {
			t.Fatalf("fault campaign produced no client errors: %+v", res)
		}
		a := critpath.Analyze(tr.Events())
		errPaths := 0
		for _, p := range a.Paths {
			var sum int64
			for _, seg := range p.Segments {
				sum += seg.Dur
			}
			if sum != p.E2E {
				t.Fatalf("tail-kept req %d does not tile: sum %d, e2e %d", p.Req, sum, p.E2E)
			}
			if p.RootName == "error" {
				errPaths++
			}
		}
		if errPaths == 0 {
			t.Fatalf("no error-kept critical paths among %d", len(a.Paths))
		}
	})
}

// Digests of TestCritpathBlameDeterminism's outputs at seed 42. A
// pinned digest catches an output written in map order on every run,
// where comparing two runs of one process misses it whenever their
// iteration orders happen to agree.
const (
	critpathFoldedSHA256  = "41c0d4628afcc936b3e4dd5fbb93e13faa2215709b660d7714fef256bb250b4d"
	critpathSectionSHA256 = "a622eb5bee04bd3d4574c73e0804146808dd01e7653b6d78bce83bdccf978d7f"
)

// TestCritpathBlameDeterminism pins byte determinism of the blame
// profile: two same-seed runs must produce the checked-in digests of
// the critpath report section and of the folded stacks. Runs under
// CI's -run 'Determin' golden step.
func TestCritpathBlameDeterminism(t *testing.T) {
	runOnce := func() ([]byte, []byte) {
		tr := trace.New(1 << 18)
		tr.SetSampling(0.25, 42) // sampled + tail keeps together
		reg := telemetry.NewRegistry()
		folded := critpath.NewFolded()
		cfg := DefaultConfig(middletier.SmartDS)
		cfg.Seed = 42
		cfg.Functional = false
		cfg.Trace = tr
		cfg.CritpathFolded = folded
		cfg.Telemetry = reg
		cfg.TelemetryExp = "determinism"
		c := New(cfg)
		res := c.Run(Workload{Window: 8, Warmup: 1e-3, Measure: 4e-3})
		if res.Requests == 0 {
			t.Fatal("no requests completed")
		}
		rep := reg.BuildReport("determinism", cfg.Seed, true, nil)
		if len(rep.Runs) != 1 || rep.Runs[0].Critpath == nil {
			t.Fatal("no critpath section recorded")
		}
		js, err := json.Marshal(rep.Runs[0].Critpath)
		if err != nil {
			t.Fatal(err)
		}
		var fb bytes.Buffer
		if err := folded.Write(&fb); err != nil {
			t.Fatal(err)
		}
		if fb.Len() == 0 {
			t.Fatal("folded export is empty")
		}
		return js, fb.Bytes()
	}
	for run := 0; run < 2; run++ {
		js, f := runOnce()
		if got := fmt.Sprintf("%x", sha256.Sum256(f)); got != critpathFoldedSHA256 {
			t.Fatalf("run %d: folded stacks digest %s, want %s:\n%s", run, got, critpathFoldedSHA256, f)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != critpathSectionSHA256 {
			t.Fatalf("run %d: critpath section digest %s, want %s:\n%s", run, got, critpathSectionSHA256, js)
		}
	}
}

// TestStragglerAcksCounters pins the counter satellite: replicated
// writes bump exactly one per-replica straggler slot per decided
// fan-out, the counts are visible in the telemetry report without any
// tracing, and chain replication (per-hop waits, no fan-out race)
// records none.
func TestStragglerAcksCounters(t *testing.T) {
	run := func(proto middletier.Protocol) (*Cluster, Results, *telemetry.Report) {
		reg := telemetry.NewRegistry()
		cfg := DefaultConfig(middletier.SmartDS)
		cfg.Seed = 42
		cfg.Functional = false
		cfg.MT.Protocol = proto
		cfg.Telemetry = reg
		cfg.TelemetryExp = "straggler"
		c := New(cfg)
		res := c.Run(Workload{Window: 8, Warmup: 1e-3, Measure: 3e-3})
		return c, res, reg.BuildReport("straggler", cfg.Seed, true, nil)
	}

	c, res, rep := run(middletier.ProtoPrimary)
	var sum uint64
	for _, n := range c.MT.StragglerAcks {
		sum += n
	}
	if sum == 0 {
		t.Fatal("primary fan-out bumped no straggler counters")
	}
	if sum < res.Requests/2 {
		t.Errorf("straggler decisions (%d) implausibly few for %d requests", sum, res.Requests)
	}
	found := 0
	for key := range rep.Runs[0].Counters {
		if strings.HasPrefix(key, "smartds_mt_straggler_acks_total") {
			found++
			if !strings.HasPrefix(key, `smartds_mt_straggler_acks_total{replica="`) {
				t.Errorf("straggler counter missing replica label: %s", key)
			}
		}
	}
	if found != len(c.MT.StragglerAcks) {
		t.Errorf("report has %d straggler series, want %d", found, len(c.MT.StragglerAcks))
	}

	cc, _, _ := run(middletier.ProtoChain)
	for i, n := range cc.MT.StragglerAcks {
		if n != 0 {
			t.Errorf("chain replication bumped straggler slot %d = %d (per-hop waits have no fan-out race)", i, n)
		}
	}
}
