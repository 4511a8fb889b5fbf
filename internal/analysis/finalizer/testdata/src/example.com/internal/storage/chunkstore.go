// Package storage mirrors the compaction of
// internal/storage/chunkstore.go (ChunkStore.Compact) with the defect
// the mutation audit planted there: a forced collection after dropping
// superseded records. It only costs host time, so every test passes and
// finalizer is the only check that catches it.
package storage

import "runtime"

type Record struct{ live bool }

type ChunkStore struct {
	records   []*Record
	deadBytes int64
}

func (s *ChunkStore) Compact() int64 {
	kept := s.records[:0]
	for _, r := range s.records {
		if r.live {
			kept = append(kept, r)
		}
	}
	s.records = kept
	runtime.GC() // want `runtime\.GC manipulates the collector/scheduler`
	reclaimed := s.deadBytes
	s.deadBytes = 0
	return reclaimed
}
