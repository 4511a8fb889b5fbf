// Package storage implements the back-end storage servers of the
// disaggregated block store: an append-only chunk store with a
// block-location index (writes append, reads return the latest
// version, compaction reclaims superseded records), an NVMe-like disk
// model, and the network service loop the middle tier talks to.
package storage

import (
	"fmt"
)

// BlockKey identifies one logical block.
type BlockKey struct {
	SegmentID uint64
	ChunkID   uint32
	BlockOff  uint32
}

func (k BlockKey) String() string {
	return fmt.Sprintf("seg%d/chunk%d/blk%d", k.SegmentID, k.ChunkID, k.BlockOff)
}

// Record is one appended block version: the stored payload (usually an
// LZ4 frame) plus bookkeeping. Modeled-size runs store no bytes; the
// record then carries only SizeHint, the frame size to serve reads with.
type Record struct {
	Key      BlockKey
	Data     []byte
	SizeHint uint32
	Flags    uint8 // blockstore header flags at write time (compressed?)
	// Version is this store's own append sequence (local arrival order,
	// not writer order).
	Version uint64
	// WriteVersion is the middle tier's writer-assigned version carried
	// by the replicate header: it totally orders writes to a block
	// across replicas, so quorum reads rank replicas by it and the
	// versioned appends refuse regressions. Zero means unversioned
	// (legacy or maintenance traffic).
	WriteVersion uint64
	live         bool
}

// ChunkStore is the per-server append-only store (paper §2.2.1:
// "storage servers write the data into the disk in an appended way").
type ChunkStore struct {
	records []*Record
	index   map[BlockKey]*Record
	version uint64

	liveBytes int64
	deadBytes int64
}

// NewChunkStore returns an empty store.
func NewChunkStore() *ChunkStore {
	return &ChunkStore{index: make(map[BlockKey]*Record)}
}

// Append stores a new version of a block and returns its record. The
// previous version, if any, becomes garbage until compaction.
func (s *ChunkStore) Append(key BlockKey, data []byte) *Record {
	return s.AppendFlagged(key, data, 0)
}

// AppendFlagged is Append carrying the write's header flags, so reads
// can tell compressed frames from raw (latency-sensitive) blocks.
func (s *ChunkStore) AppendFlagged(key BlockKey, data []byte, flags uint8) *Record {
	return s.AppendVersioned(key, data, flags, 0)
}

// AppendVersioned is AppendFlagged carrying the writer-assigned
// version. A versioned append (version > 0) is refused — returning the
// standing record — when the block's current record already holds an
// equal or newer writer version: a stale read-repair, backfill, or
// duplicate retry must never clobber a newer write. Unversioned
// appends always land (legacy behavior).
func (s *ChunkStore) AppendVersioned(key BlockKey, data []byte, flags uint8, version uint64) *Record {
	return s.appendRecord(key, data, uint32(len(data)), flags, version)
}

// AppendModeled stores a sizes-only record (modeled payload runs).
func (s *ChunkStore) AppendModeled(key BlockKey, size uint32, flags uint8) *Record {
	return s.AppendModeledVersioned(key, size, flags, 0)
}

// AppendModeledVersioned is AppendModeled with the same regression
// guard as AppendVersioned.
func (s *ChunkStore) AppendModeledVersioned(key BlockKey, size uint32, flags uint8, version uint64) *Record {
	return s.appendRecord(key, nil, size, flags, version)
}

// appendRecord appends a record of size bytes holding a copy of data
// (none for a sizes-only record), under AppendVersioned's guard.
func (s *ChunkStore) appendRecord(key BlockKey, data []byte, size uint32, flags uint8, version uint64) *Record {
	if old, ok := s.index[key]; ok && version > 0 && old.WriteVersion >= version {
		return old
	}
	s.version++
	rec := &Record{Key: key, Data: append([]byte(nil), data...), SizeHint: size,
		Flags: flags, Version: s.version, WriteVersion: version, live: true}
	if old, ok := s.index[key]; ok {
		old.live = false
		s.liveBytes -= int64(len(old.Data))
		s.deadBytes += int64(len(old.Data))
	}
	s.records = append(s.records, rec)
	s.index[key] = rec
	s.liveBytes += int64(len(data))
	return rec
}

// Lookup returns the latest version of a block.
func (s *ChunkStore) Lookup(key BlockKey) (*Record, bool) {
	rec, ok := s.index[key]
	return rec, ok
}

// LiveBytes and DeadBytes report store occupancy.
func (s *ChunkStore) LiveBytes() int64 { return s.liveBytes }
func (s *ChunkStore) DeadBytes() int64 { return s.deadBytes }

// Records returns the total record count including garbage.
func (s *ChunkStore) Records() int { return len(s.records) }

// Compact drops superseded records (the disk-side half of the LSM
// compaction + garbage collection maintenance service) and returns the
// bytes reclaimed.
func (s *ChunkStore) Compact() int64 {
	kept := s.records[:0]
	for _, r := range s.records {
		if r.live {
			kept = append(kept, r)
		}
	}
	// Zero the tail so dropped records can be collected.
	for i := len(kept); i < len(s.records); i++ {
		s.records[i] = nil
	}
	s.records = kept
	reclaimed := s.deadBytes
	s.deadBytes = 0
	return reclaimed
}

// GarbageRatio returns dead/(live+dead) bytes, the compaction trigger.
func (s *ChunkStore) GarbageRatio() float64 {
	total := s.liveBytes + s.deadBytes
	if total == 0 {
		return 0
	}
	return float64(s.deadBytes) / float64(total)
}
