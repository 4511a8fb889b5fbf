package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// allKinds is the full design matrix the fault battery must pass.
var allKinds = []middletier.Kind{
	middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS,
}

// TestFailoverUnderLoadBattery kills a storage server mid-workload for
// every middle-tier design and verifies the durability contract: every
// write the client saw acknowledged is still readable, with the
// correct bytes, from a replica the placement map currently points at.
func TestFailoverUnderLoadBattery(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(kind)
			cfg.Seed = 7
			cfg.NumStorage = 5 // room to lose one and still place 3 replicas
			cfg.MT.ReplicateTimeout = 1.5e-3
			c := New(cfg)

			sched := faults.MustParse("crash:ss1@4ms+4ms")
			inj, err := c.ApplyFaults(sched)
			if err != nil {
				t.Fatalf("ApplyFaults: %v", err)
			}
			res := c.Run(Workload{Window: 8, Warmup: 1e-3, Measure: 12e-3})

			if res.Requests == 0 {
				t.Fatal("no requests completed")
			}
			if res.VerifyMismatches != 0 {
				t.Fatalf("%d read-verify mismatches", res.VerifyMismatches)
			}
			if err := c.CheckAckedWrites(); err != nil {
				t.Fatalf("durability violated: %v", err)
			}
			// The crash must actually have bitten the write path: writes
			// during the dark window either rerouted (degraded placement),
			// retried a stranded fan-out, or were refused.
			if c.MT.Degraded+c.MT.ReplicateRetries+c.MT.Unroutable == 0 {
				t.Fatal("crash left no trace on the middle tier (fault not injected?)")
			}
			st := inj.Monitor.Stats(sched)
			if len(st.Recoveries) != 1 {
				t.Fatalf("want 1 recovery record, got %d", len(st.Recoveries))
			}
			if st.Recoveries[0].TimeToRecover < 0 {
				t.Fatal("service never completed a request after the crash")
			}
		})
	}
}

// TestRebuildServerRestoresCrashedStore fail-stops a storage server
// after a run — so the placement map still references it — and checks
// that RebuildServer streams the lost chunks back from surviving
// replicas: re-replication bytes are counted and the store holds
// records again.
func TestRebuildServerRestoresCrashedStore(t *testing.T) {
	cfg := DefaultConfig(middletier.SmartDS)
	cfg.Seed = 3
	cfg.NumStorage = 5
	c := New(cfg)
	res := c.Run(Workload{Window: 8, Warmup: 0.5e-3, Measure: 3e-3})
	if res.Errors > 0 {
		t.Fatalf("healthy run errored: %d", res.Errors)
	}
	srv := c.Storage[1]
	before := srv.Store().Records()
	if before == 0 {
		t.Skip("seed placed no replicas on ss1; pick another seed")
	}

	srv.Crash()
	if srv.Store().Records() != 0 {
		t.Fatal("Crash did not lose the store contents")
	}
	srv.Recover()
	c.MT.ReconnectStorage(1, srv)
	var rebuilt float64
	c.Env.Go("rebuild", func(p *sim.Proc) {
		rebuilt = c.MT.RebuildServer(p, 1, c.Storage)
	})
	c.Env.Run(0)

	if rebuilt == 0 {
		t.Fatal("RebuildServer streamed no bytes despite lost replicas")
	}
	if c.MT.RebuildBytes != rebuilt {
		t.Fatalf("RebuildBytes counter %v != returned %v", c.MT.RebuildBytes, rebuilt)
	}
	// The rebuild is charged the stored bytes it restored, not a count
	// of records.
	if live := float64(srv.Store().LiveBytes()); rebuilt != live {
		t.Fatalf("RebuildServer charged %v bytes, restored store holds %v", rebuilt, live)
	}
	if after := srv.Store().Records(); after != before {
		t.Fatalf("rebuild restored %d records, crashed server held %d", after, before)
	}
	if err := c.CheckAckedWrites(); err != nil {
		t.Fatalf("durability violated after rebuild: %v", err)
	}
}

// runCampaign executes one seeded run (modeled payloads for speed) and
// returns every observable artifact as comparable values: the result
// struct rendered to text, the fault report tables, and the raw trace
// event stream.
func runCampaign(t *testing.T, spec string) (string, []trace.Event) {
	t.Helper()
	cfg := DefaultConfig(middletier.SmartDS)
	cfg.Seed = 11
	cfg.NumStorage = 5
	cfg.Functional = false // determinism must hold in modeled mode too
	cfg.MT.ReplicateTimeout = 1.5e-3
	tr := trace.New(1 << 16)
	cfg.Trace = tr
	c := New(cfg)

	var inj *faults.Injector
	var sched *faults.Schedule
	if spec != "" {
		sched = faults.MustParse(spec)
		var err error
		inj, err = c.ApplyFaults(sched)
		if err != nil {
			t.Fatalf("ApplyFaults: %v", err)
		}
	}
	res := c.Run(Workload{Window: 16, Warmup: 1e-3, Measure: 8e-3})
	out := fmt.Sprintf("%+v", res)
	if inj != nil {
		out += "\n" + inj.Report().String()
		out += "\n" + inj.Monitor.Stats(sched).Table().String()
	}
	return out, tr.Events()
}

// TestFaultCampaignDeterminism runs the same seed twice — once without
// faults and once under a campaign — and requires byte-identical
// metrics output and trace streams. This is the property that makes a
// campaign-found failover bug replayable under a debugger.
func TestFaultCampaignDeterminism(t *testing.T) {
	cases := []struct{ name, spec string }{
		{"baseline", ""},
		{"campaign", "loss:vm0->mt@2ms+2ms:0.05;crash:ss1@4ms+2ms"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out1, ev1 := runCampaign(t, tc.spec)
			out2, ev2 := runCampaign(t, tc.spec)
			if out1 != out2 {
				t.Fatalf("metrics drifted between same-seed runs:\n--- run1\n%s\n--- run2\n%s", out1, out2)
			}
			if len(ev1) != len(ev2) {
				t.Fatalf("trace streams differ in length: %d vs %d", len(ev1), len(ev2))
			}
			for i := range ev1 {
				if !reflect.DeepEqual(ev1[i], ev2[i]) {
					t.Fatalf("trace streams diverge at event %d:\n run1 %+v\n run2 %+v", i, ev1[i], ev2[i])
				}
			}
		})
	}
}
