package cluster

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/storage"
)

// ApplyFaults arms a fault campaign against this cluster and wires
// every client's completion stream into the injector's recovery
// monitor. Call before Run; the returned injector's Report and
// Monitor.Stats summarize the campaign afterwards.
func (c *Cluster) ApplyFaults(sched *faults.Schedule) (*faults.Injector, error) {
	inj := faults.New(faults.Target{
		Env:       c.Env,
		Fabric:    c.Fabric,
		MT:        c.MT,
		Storage:   c.Storage,
		Trace:     c.cfg.Trace,
		Seed:      c.cfg.Seed,
		Reconnect: c.ReconnectTransport,
	}, sched)
	if err := inj.Arm(); err != nil {
		return nil, err
	}
	for _, cl := range c.Clients {
		cl.completionHook = inj.Monitor.OnCompletion
	}
	c.inj = inj
	c.faultSched = sched
	return inj, nil
}

// ReconnectTransport re-establishes every client<->middle-tier and
// middle-tier<->storage queue pair whose retry budget was exhausted
// while an endpoint was dark. Healthy connections are untouched.
func (c *Cluster) ReconnectTransport() {
	for i, cl := range c.Clients {
		local := c.MT.ClientLocalQP(i)
		if local == nil {
			continue
		}
		if cl.qp.Broken() || local.Broken() {
			rdma.Reconnect(cl.qp, local)
		}
	}
	for idx, srv := range c.Storage {
		c.MT.ReconnectStorage(idx, srv)
	}
}

// CheckAckedWrites verifies the protocol-generic durability contract
// the failover tests assert: every write a client saw acknowledged is
// still readable with the right bytes from enough healthy replicas in
// the chunk's current placement that every subsequent read must
// observe it. With n placement members of which h are currently
// serving, reads consult ReadQuorum(n) of the healthy members, so the
// block must be held by at least h-ReadQuorum(n)+1 of them (floor 1):
// for primary fan-out and chain (read quorum 1) that is every healthy
// member; for the 3-replica quorum protocol it is enough that every
// 2-member read quorum intersects the holders. Members that are down
// right now are exempt — reads cannot reach them and recovery rebuilds
// them from the survivors before they serve again. It returns nil when
// the contract holds; the error details the first few violations.
// Modeled-payload writes (no real bytes) are skipped. LBAs are walked
// in sorted order so reports are deterministic.
func (c *Cluster) CheckAckedWrites() error {
	var violations []string
	checked := 0
	for _, cl := range c.Clients {
		lbas := make([]uint64, 0, len(cl.writtenData))
		for lba, block := range cl.writtenData {
			if block != nil {
				lbas = append(lbas, lba)
			}
		}
		sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
		for _, lba := range lbas {
			block := cl.writtenData[lba]
			loc := c.geo.Resolve(lba)
			set := c.MT.ReplicaSet(loc.SegmentID, loc.ChunkID)
			checked++
			if len(set) == 0 {
				violations = append(violations,
					fmt.Sprintf("vm%d lba %d: no placement for seg %d chunk %d",
						cl.id, lba, loc.SegmentID, loc.ChunkID))
				continue
			}
			healthy := make([]int, 0, len(set))
			for _, idx := range set {
				if idx >= 0 && idx < len(c.Storage) && !c.Storage[idx].Down() {
					healthy = append(healthy, idx)
				}
			}
			need := len(healthy) - c.cfg.MT.Protocol.ReadQuorum(len(set)) + 1
			if need < 1 {
				need = 1
			}
			if holders := c.blockHolders(loc, healthy, block); holders < need {
				violations = append(violations,
					fmt.Sprintf("vm%d lba %d: %d of healthy %v (placement %v) hold matching bytes, reads need %d",
						cl.id, lba, holders, healthy, set, need))
			}
			if len(violations) >= 8 {
				return fmt.Errorf("cluster: %d+ acked writes unreadable (checked %d): %v",
					len(violations), checked, violations)
			}
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("cluster: %d of %d acked writes unreadable: %v",
			len(violations), checked, violations)
	}
	return nil
}

// blockHolders counts the replicas in set holding the block's bytes
// (decoding the stored frame when it was compressed).
func (c *Cluster) blockHolders(loc blockstore.Location, set []int, block []byte) int {
	key := storage.BlockKey{SegmentID: loc.SegmentID, ChunkID: loc.ChunkID, BlockOff: loc.BlockOff}
	holders := 0
	for _, idx := range set {
		if idx < 0 || idx >= len(c.Storage) {
			continue
		}
		rec, ok := c.Storage[idx].Store().Lookup(key)
		if !ok || rec.Data == nil {
			continue
		}
		data := rec.Data
		if rec.Flags&blockstore.FlagCompressed != 0 {
			orig, err := lz4.DecodeFrame(data)
			if err != nil {
				continue
			}
			data = orig
		}
		if bytes.Equal(data, block) {
			holders++
		}
	}
	return holders
}
