package middletier

import (
	"bytes"

	"github.com/disagg/smartds/internal/blockstore"
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
	BytesCompacted   float64
	BytesReclaimed   int64
	SnapshotBytes    int64 // compressed snapshot image bytes produced
	SnapshotRecords  int
}

// StartMaintenance launches the background services on dedicated
// cores. They run until Stop.
func (s *Server) StartMaintenance(servers []*storage.Server) *Maintenance {
	m := &Maintenance{running: true}

	// Compaction: rewrite retained buffers through host memory, then
	// persist the compacted result on the storage servers (paper
	// §2.2.3: "the result of the compaction is sent to remote storage
	// servers for persistence").
	compCore, err := s.cpu.Claim()
	if err == nil {
		s.env.Go("mt.compaction", func(p *sim.Proc) {
			var seq uint32
			for m.running {
				p.Sleep(compactionInterval)
				if !m.running {
					break
				}
				compCore.Work(p, compactionCPUTime)
				s.Mem.Read(p, compactionBytes)
				s.Mem.Write(p, compactionBytes)
				// Ship the compacted run to the replicas of a dedicated
				// maintenance chunk. Compaction output is already
				// compressed data, so it goes out as-is.
				seq++
				hdr := blockstore.Header{
					Op:         blockstore.OpReplicate,
					Flags:      blockstore.FlagCompressed,
					SegmentID:  ^uint64(0), // maintenance namespace
					ChunkID:    seq,
					PayloadLen: uint32(compactionBytes),
				}
				// Size the pending entry to the actual fan-out: under
				// degraded mode replicasFor can return fewer servers than
				// the replication factor, and a pending registered for the
				// full factor would then never complete and wedge the
				// compaction loop for the rest of the run.
				var set []int
				if s.numStorage > 0 {
					set = s.replicasFor(hdr)
				}
				if len(set) > 0 {
					repID, pr := s.begin(len(set), len(set))
					hdr.ReqID = repID
					// The run lives in host memory: each design ships it
					// from there (SmartDS across PCIe, via port 0).
					out := frame{size: compactionBytes, host: true}
					for _, idx := range set {
						s.dp.send(p, 0, s.storagePaths[0][idx], hdr, out)
					}
					p.Wait(pr.done)
				}
				m.CompactionPasses++
				m.BytesCompacted += compactionBytes
			}
			compCore.Release()
		})
	}

	// Garbage collection over the storage servers.
	s.env.Go("mt.gc", func(p *sim.Proc) {
		for m.running {
			p.Sleep(gcInterval)
			if !m.running {
				break
			}
			for _, srv := range servers {
				if srv.Store().GarbageRatio() >= gcThreshold {
					m.BytesReclaimed += srv.Store().Compact()
					m.GCPasses++
				}
			}
		}
	})

	// Snapshots: periodically capture a real compressed image of one
	// storage server's live records (round-robin across servers). The
	// image lands in the middle tier's host memory.
	snapCore, err := s.cpu.Claim()
	if err == nil {
		s.env.Go("mt.snapshot", func(p *sim.Proc) {
			next := 0
			for m.running {
				p.Sleep(snapshotInterval)
				if !m.running {
					break
				}
				snapCore.Work(p, snapshotCPUTime)
				if len(servers) > 0 {
					srv := servers[next%len(servers)]
					next++
					var img bytes.Buffer
					n, err := srv.Store().Snapshot(&img, lz4.LevelFast)
					if err == nil {
						m.SnapshotRecords += n
						m.SnapshotBytes += int64(img.Len())
						// The image crosses the network into host memory.
						s.Mem.Write(p, float64(img.Len()))
					}
				}
				m.Snapshots++
			}
			snapCore.Release()
		})
	}
	return m
}

// Stop winds the services down after their current sleep.
func (m *Maintenance) Stop() { m.running = false }
