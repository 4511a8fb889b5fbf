package middletier

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/evlog"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/storage"
)

// This file is the middle tier's failure-handling plane: bounded-retry
// replication, compression-engine fail-over, transport reconnects, and
// crashed-server rebuild. The request pipeline (pipeline.go) calls into
// it; the fault injector (internal/faults) and the failover tests drive
// it from outside.

// maxReplicateAttempts bounds how many times one write's fan-out is
// re-issued before the client gets an error. Each retry refreshes the
// replica set, so a crashed server is routed around on the second
// attempt; repeated failure means the cluster itself is unhealthy.
const maxReplicateAttempts = 4

// replicateWait runs one write's replication through the configured
// protocol (replicator.go). send must issue the replicate message to
// every server in set, tagged with repID, through whatever front end
// the design has; the protocol may call it several times, each with a
// fresh repID and whatever subset its fan-out order dictates. The
// returned status is what the client ack carries; stored is how many
// replicas the deciding attempt shipped the frame to (the BytesStored
// accounting factor).
func (s *Server) replicateWait(p *sim.Proc, hdr blockstore.Header, frameSize float64,
	send SendFn) (blockstore.Status, int) {
	return s.rep.Replicate(s, p, hdr, frameSize, send)
}

// SetEngineDown fails (true) or restores (false) a compression engine:
// index 0 for the Accel card and the BF2 SoC engine, the port index
// for SmartDS's per-port engines.
func (s *Server) SetEngineDown(port int, down bool) {
	if port < 0 || port >= len(s.engineDown) {
		return
	}
	s.engineDown[port] = down
	// Mirror the failure onto the device engine itself so a routing bug
	// that submits work to a failed engine surfaces as ErrEngineDown
	// instead of silently compressing.
	if port < len(s.engines) {
		s.engines[port].SetDown(down)
	}
}

// engineAvailable reports whether the engine at idx is serving.
func (s *Server) engineAvailable(idx int) bool {
	return idx >= 0 && idx < len(s.engineDown) && !s.engineDown[idx]
}

// altEnginePort finds a surviving SmartDS engine to reroute compression
// to when the request's own port engine is down; -1 when none is left.
func (s *Server) altEnginePort(down int) int {
	for i := range s.engineDown {
		if i != down && !s.engineDown[i] {
			return i
		}
	}
	return -1
}

// Addrs returns the middle tier's fabric addresses — the ports a fault
// injector targets for loss or degradation on "mt".
func (s *Server) Addrs() []netsim.Addr {
	var out []netsim.Addr
	for _, st := range s.stacks {
		out = append(out, st.Addr())
	}
	return out
}

// ReplicaSet returns a copy of the recorded placement for one chunk
// (empty when the chunk was never written through this server). The
// durability checker walks it to find which stores must hold a block.
func (s *Server) ReplicaSet(seg uint64, chunk uint32) []int {
	return slices.Clone(s.placement[chunkKey{seg: seg, chunk: chunk}])
}

// ClientLocalQP returns the middle-tier side of client connection i (in
// ConnectClient order) so the transport layer can be reconnected after
// a middle-tier restart.
func (s *Server) ClientLocalQP(i int) *rdma.QP {
	if i < 0 || i >= len(s.clientLocals) {
		return nil
	}
	return s.clientLocals[i]
}

// ReconnectStorage re-establishes every transport path to storage
// server idx whose QP broke while the server was dark (retry budget
// exhausted during a crash window). Both ends reset to a common new
// epoch; unbroken paths are left untouched.
func (s *Server) ReconnectStorage(idx int, srv *storage.Server) {
	for pi := range s.storagePaths {
		if idx < 0 || idx >= len(s.storagePaths[pi]) {
			continue
		}
		local := s.storagePaths[pi][idx]
		peer := srv.Stack().QP(local.Remote().QPN)
		if peer == nil {
			continue
		}
		if local.Broken() || peer.Broken() {
			rdma.Reconnect(local, peer)
		}
	}
}

// copyChunk copies one chunk's snapshot from src's store into dst's and
// returns the snapshot bytes. Restore is versioned, so a block newer on
// dst than in the snapshot is never clobbered.
func (s *Server) copyChunk(src, dst *storage.Server, key chunkKey) (int, error) {
	var buf bytes.Buffer
	n, err := src.Store().SnapshotChunk(&buf, key.seg, key.chunk, s.cfg.Level)
	if err == nil {
		_, err = dst.Store().RestoreSnapshot(&buf)
	}
	return n, err
}

// RebuildServer streams surviving replicas' chunk snapshots into a
// recovered server's empty store (the re-replication phase of
// fail-over). It charges the transfer at the middle tier's port rate
// and returns the snapshot bytes moved. Chunks are rebuilt in sorted
// (segment, chunk) order so same-seed runs replay identically.
func (s *Server) RebuildServer(p *sim.Proc, idx int, servers []*storage.Server) float64 {
	var keys []chunkKey
	for key, set := range s.placement {
		if slices.Contains(set, idx) {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(a, b chunkKey) int {
		return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.chunk, b.chunk))
	})
	total := 0.0
	rebuilt := 0
	for _, key := range keys {
		var src *storage.Server
		for _, m := range s.placement[key] {
			if m != idx && m >= 0 && m < len(servers) && !servers[m].Down() {
				src = servers[m]
				break
			}
		}
		if src == nil {
			continue // no surviving replica: data loss, nothing to stream
		}
		n, err := s.copyChunk(src, servers[idx], key)
		if err != nil {
			continue
		}
		total += float64(n)
		rebuilt++
	}
	if total > 0 {
		p.Sleep(total / s.cfg.PortRate)
	}
	s.RebuildBytes += total
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(p.Now(), "mt", "rebuild",
			fmt.Sprintf("server=%d chunks=%d bytes=%.0f", idx, rebuilt, total))
	}
	if s.cfg.Log.Enabled(evlog.Info) {
		s.cfg.Log.Info("rebuild", "server", idx, "chunks", rebuilt, "bytes", total)
	}
	return total
}
