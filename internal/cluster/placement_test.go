package cluster

import (
	"testing"

	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/storage"
)

// sourceChoiceCluster runs a short healthy write load on five storage
// servers and returns the cluster, the replica set of the chunk the
// client wrote, one block the load wrote to it, and a marker block
// planted on the set's first member alone. A server a chunk is copied
// from passes the marker on; no other member holds it.
func sourceChoiceCluster(t *testing.T) (c *Cluster, set []int, written, marker storage.BlockKey) {
	t.Helper()
	cfg := smallCfg(middletier.CPUOnly)
	cfg.NumStorage = 5
	c = New(cfg)
	if res := c.Run(Workload{Window: 4, Warmup: 0.2e-3, Measure: 0.5e-3}); res.Requests == 0 || res.RunErrors != 0 {
		t.Fatalf("healthy load: %d requests, %d errors", res.Requests, res.RunErrors)
	}
	loc := c.geo.Resolve(0) // the client's first write
	set = c.MT.ReplicaSet(loc.SegmentID, loc.ChunkID)
	if len(set) != 3 {
		t.Fatalf("chunk placed on %v, want 3 replicas", set)
	}
	written = storage.BlockKey{SegmentID: loc.SegmentID, ChunkID: loc.ChunkID, BlockOff: loc.BlockOff}
	marker = written
	marker.BlockOff = uint32(c.geo.BlocksPerChunk() - 1)
	for _, idx := range set {
		if _, ok := c.Storage[idx].Store().Lookup(marker); ok {
			t.Fatalf("server %d already holds the marker block", idx)
		}
	}
	c.Storage[set[0]].Store().AppendVersioned(marker, []byte("marker"), 0, 1<<40)
	return c, set, written, marker
}

// TestRebuildAndBackfillSourceChoice pins which surviving replica each
// re-replication path copies a chunk from while the middle tier's down
// flags and the storage servers' own state disagree. That happens while
// overlapping crashes recover: a recovering server's store is refilled
// as soon as its rebuild starts, but the middle tier keeps it marked
// down until the rebuild's transfer time has passed. A second server
// recovering in that window is rebuilt by RebuildServer, which judges
// sources by storage Down() and so copies from the first one. A write
// in that window backfills its substitutes by the middle tier's flags,
// from the first member the middle tier considers up.
func TestRebuildAndBackfillSourceChoice(t *testing.T) {
	t.Run("rebuild", func(t *testing.T) {
		c, set, written, marker := sourceChoiceCluster(t)
		// set[0] is still rebuilding: storage up, middle tier down. set[2]
		// recovers from a crash now.
		c.MT.SetServerDown(set[0], true)
		dst := c.Storage[set[2]]
		c.MT.SetServerDown(set[2], true)
		dst.Crash()
		dst.Recover()
		c.Env.Go("rebuild", func(p *sim.Proc) { c.MT.RebuildServer(p, set[2], c.Storage) })
		c.Env.Run(0)
		if _, ok := dst.Store().Lookup(marker); !ok {
			t.Fatalf("rebuild of server %d did not copy from server %d, the first member storage reports up", set[2], set[0])
		}
		if _, ok := dst.Store().Lookup(written); !ok {
			t.Fatal("rebuild lost the chunk's written block")
		}
	})
	t.Run("backfill", func(t *testing.T) {
		c, set, written, marker := sourceChoiceCluster(t)
		// set[0] is still rebuilding: storage up, middle tier down. The
		// next write to the chunk substitutes it and backfills the
		// substitute from set[1].
		c.MT.SetServerDown(set[0], true)
		if res := c.Run(Workload{Window: 1, Measure: 0.2e-3}); res.Requests == 0 || res.RunErrors != 0 {
			t.Fatalf("write load: %d requests, %d errors", res.Requests, res.RunErrors)
		}
		now := c.MT.ReplicaSet(marker.SegmentID, marker.ChunkID)
		if len(now) != 3 || now[0] == set[0] || now[1] != set[1] || now[2] != set[2] {
			t.Fatalf("placement %v after substituting server %d of %v", now, set[0], set)
		}
		sub := c.Storage[now[0]]
		if _, ok := sub.Store().Lookup(marker); ok {
			t.Fatalf("substitute %d was backfilled from server %d, which the middle tier considers down", now[0], set[0])
		}
		if _, ok := sub.Store().Lookup(written); !ok {
			t.Fatalf("substitute %d lacks the block written before the fail-over", now[0])
		}
		if c.MT.BackfillBytes == 0 {
			t.Fatal("no backfill bytes counted")
		}
	})
}

// TestCompactionSurvivesReplicaCrash is the regression test for a
// compaction wedge: a replica that crashes with a compaction run in
// flight never acknowledges it, and an unbounded wait on that fan-out
// stalled the compaction service for the rest of the run. The wait is
// bounded by ReplicateTimeout like a write's, and the abandoned fan-out
// is unregistered.
func TestCompactionSurvivesReplicaCrash(t *testing.T) {
	run := func(spec string) (passes uint64, inflight int) {
		cfg := smallCfg(middletier.CPUOnly)
		cfg.MT.ReplicateTimeout = 1.5e-3
		c := New(cfg)
		if spec != "" {
			if _, err := c.ApplyFaults(faults.MustParse(spec)); err != nil {
				t.Fatal(err)
			}
		}
		m := c.MT.StartMaintenance(c.Storage)
		c.Run(Workload{Window: 8, Warmup: 2e-3, Measure: 48e-3})
		m.Stop()
		return m.CompactionPasses, c.MT.InflightFanouts()
	}
	healthy, _ := run("")
	if healthy < 3 {
		t.Fatalf("%d compaction passes in a healthy 50 ms run, want at least 3", healthy)
	}
	// The crash catches the 10 ms pass with its run in flight.
	passes, inflight := run("crash:ss1@11ms+20ms")
	if passes < healthy-1 {
		t.Errorf("%d compaction passes, want at least %d (healthy run: %d)", passes, healthy-1, healthy)
	}
	if inflight != 0 {
		t.Errorf("%d fan-outs still registered after the run", inflight)
	}
}
