package middletier

import (
	"bytes"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/host"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/storage"
)

// Maintenance services (paper §2.2.3): besides serving I/O, every
// middle-tier server runs LSM-tree compaction over retained write
// buffers, disk garbage collection, and snapshotting. These compete
// with the real-time path for CPU and — critically for §5.3 — for
// host memory bandwidth.

// Background load of the services.
const (
	// compactionInterval is how often the compaction service scans the
	// retained write buffers.
	compactionInterval = 10e-3
	// compactionBytes is how much buffered data each pass rewrites
	// (reads + writes host memory and burns CPU).
	compactionBytes = 4 << 20
	// compactionCPUTime is the core time per pass.
	compactionCPUTime = 500e-6
	// gcInterval and gcThreshold drive storage-side garbage collection:
	// when a storage server's garbage ratio exceeds the threshold, the
	// service triggers ChunkStore.Compact.
	gcInterval  = 50e-3
	gcThreshold = 0.5
	// snapshotInterval drives periodic snapshots (metadata-only pass).
	snapshotInterval = 100e-3
	snapshotCPUTime  = 200e-6
)

// Maintenance is the running service set.
type Maintenance struct {
	running bool

	CompactionPasses uint64
	GCPasses         uint64
	Snapshots        uint64
	BytesReclaimed   int64 // storage bytes GC compaction freed
}

// StartMaintenance launches the background services, compaction and
// snapshots on dedicated cores. They run until Stop.
func (s *Server) StartMaintenance(servers []*storage.Server) *Maintenance {
	m := &Maintenance{running: true}

	// Compaction: rewrite retained buffers through host memory, then
	// persist the compacted result on the storage servers (paper
	// §2.2.3: "the result of the compaction is sent to remote storage
	// servers for persistence").
	var seq uint32
	m.every(s, "mt.compaction", compactionInterval, compactionCPUTime, func(p *sim.Proc) {
		s.Mem.Read(p, compactionBytes)
		s.Mem.Write(p, compactionBytes)
		// Ship the compacted run to the replicas of a dedicated
		// maintenance chunk. Compaction output is already compressed
		// data, so it goes out as-is, from host memory on every design
		// (SmartDS across PCIe, via port 0).
		seq++
		hdr := blockstore.Header{
			Op:         blockstore.OpReplicate,
			Flags:      blockstore.FlagCompressed,
			SegmentID:  ^uint64(0), // maintenance namespace
			ChunkID:    seq,
			PayloadLen: uint32(compactionBytes),
		}
		if set := s.writeSet(hdr); len(set) > 0 {
			// Bounded like a write's wait: a replica that crashes with the
			// run in flight never acks it.
			if pr, ok := s.fanOut(p, 0, set, len(set), hdr, frame{size: compactionBytes, host: true}); ok {
				s.awaitAck(p, pr)
			}
		}
		m.CompactionPasses++
	})

	// Garbage collection over the storage servers.
	m.every(s, "mt.gc", gcInterval, 0, func(*sim.Proc) {
		for _, srv := range servers {
			if srv.Store().GarbageRatio() >= gcThreshold {
				m.BytesReclaimed += srv.Store().Compact()
				m.GCPasses++
			}
		}
	})

	// Snapshots: periodically capture a real compressed image of one
	// storage server's live records (round-robin across servers). The
	// image lands in the middle tier's host memory.
	next := 0
	m.every(s, "mt.snapshot", snapshotInterval, snapshotCPUTime, func(p *sim.Proc) {
		if len(servers) > 0 {
			srv := servers[next%len(servers)]
			next++
			var img bytes.Buffer
			if _, err := srv.Store().Snapshot(&img, lz4.LevelFast); err == nil {
				// The image crosses the network into host memory.
				s.Mem.Write(p, float64(img.Len()))
			}
		}
		m.Snapshots++
	})
	return m
}

// every runs pass every interval in a proc called name until Stop. A
// service that spends cpuTime of core time per pass runs on a core of
// its own, and does not start when none is left.
func (m *Maintenance) every(s *Server, name string, interval, cpuTime float64, pass func(*sim.Proc)) {
	var core *host.Core
	if cpuTime > 0 {
		var err error
		if core, err = s.cpu.Claim(); err != nil {
			return
		}
	}
	s.env.Go(name, func(p *sim.Proc) {
		for m.running {
			p.Sleep(interval)
			if !m.running {
				break
			}
			if core != nil {
				core.Work(p, cpuTime)
			}
			pass(p)
		}
		if core != nil {
			core.Release()
		}
	})
}

// Stop winds the services down after their current sleep.
func (m *Maintenance) Stop() { m.running = false }
