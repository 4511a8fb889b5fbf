package middletier_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/trace"
)

// replayRun is one run of a modeled-replay cell: its results, simulated
// event count and critical-path blame.
type replayRun struct {
	res     cluster.Results
	events  uint64
	blame   []critpath.StageBlame
	totalPS int64
	writes  uint64
	reads   uint64
}

// replayFaults crashes a storage server (replicate timeouts, retries,
// quorum read repair) and fails the compression engines (raw-frame
// fallback) in the faulted cells.
const replayFaults = "crash:ss1@0.3ms+0.3ms;engine:mt@0.4ms+0.2ms;engine:mt0@0.7ms+0.2ms"

// runReplayCell runs one design × protocol × read-fraction cell, under
// the fault campaign when faulted, with every request traced, recording
// (functional) or replaying (modeled) each request's compressed length
// through lens.
func runReplayCell(t *testing.T, kind middletier.Kind, proto middletier.Protocol, reads float64,
	faulted, functional bool, lens map[uint64]float64) replayRun {
	t.Helper()
	tr := trace.New(1 << 17)
	cfg := cluster.DefaultConfig(kind)
	cfg.Functional = functional
	cfg.MT.Protocol = proto
	cfg.MT.HBM = device.MemoryConfig{Capacity: 256 << 20}
	cfg.MT.SmartDSInflight = 32
	cfg.Trace = tr
	cfg.MT.ReplicateTimeout = 0.5e-3
	c := cluster.New(cfg)
	if faulted {
		if _, err := c.ApplyFaults(faults.MustParse(replayFaults)); err != nil {
			t.Fatal(err)
		}
	}
	middletier.ReplayCompressedLengths(c.MT, lens)
	res := c.Run(cluster.Workload{Window: 8, Warmup: 0.2e-3, Measure: 0.8e-3,
		ReadFraction: reads, BypassFraction: 0.05})
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; grow it", tr.Dropped())
	}
	a := critpath.Analyze(tr.Events())
	return replayRun{res: res, events: c.Env.Events(), blame: a.Stages, totalPS: a.TotalPS,
		writes: c.MT.WritesDone, reads: c.MT.ReadsDone}
}

// TestModeledReplayDeterminism proves that simulated timing sees payload
// bytes only through their sizes. For every design, replication
// protocol and read mix, fault-free and under a fault campaign, a
// functional run records each request's compressed length; a modeled
// run that takes its lengths from that record instead of the model
// ratio must then reproduce the functional run exactly: the same
// results, the same number of simulated events and the same
// critical-path blame.
func TestModeledReplayDeterminism(t *testing.T) {
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		for _, proto := range middletier.Protocols() {
			for _, cell := range []struct {
				reads   float64
				faulted bool
			}{{0, false}, {0.5, false}, {0, true}, {0.5, true}} {
				reads, faulted := cell.reads, cell.faulted
				t.Run(fmt.Sprintf("%v/%v/reads=%g/faulted=%v", kind, proto, reads, faulted), func(t *testing.T) {
					t.Parallel()
					lens := make(map[uint64]float64)
					fun := runReplayCell(t, kind, proto, reads, faulted, true, lens)
					if len(lens) == 0 || fun.writes == 0 || (reads > 0) != (fun.reads > 0) {
						t.Fatalf("functional run did not exercise the cell: %d lengths, %d writes, %d reads",
							len(lens), fun.writes, fun.reads)
					}
					mod := runReplayCell(t, kind, proto, reads, faulted, false, lens)
					if !reflect.DeepEqual(fun.res, mod.res) {
						t.Errorf("results differ\nfunctional: %+v\nmodeled:    %+v", fun.res, mod.res)
					}
					if fun.events != mod.events {
						t.Errorf("simulated events: functional %d, modeled %d", fun.events, mod.events)
					}
					if fun.totalPS != mod.totalPS || !reflect.DeepEqual(fun.blame, mod.blame) {
						t.Errorf("critical-path blame differs\nfunctional: %+v\nmodeled:    %+v", fun.blame, mod.blame)
					}
				})
			}
		}
	}
}
