// Package middletier mirrors the rebuild copy of
// internal/middletier/failover.go (Server.copyChunk) with the defect
// the mutation audit planted there: a failed snapshot restore dropped,
// so a rebuild reports a chunk copied that never landed. No test makes
// a restore fail, so errdrop is the only check that catches it.
package middletier

import (
	"bytes"
	"errors"
)

type Store struct{ broken bool }

func (s *Store) SnapshotChunk(w *bytes.Buffer) (int, error) {
	if s.broken {
		return 0, errors.New("snapshot: store lost")
	}
	return w.Len(), nil
}

func (s *Store) RestoreSnapshot(r *bytes.Buffer) (int, error) {
	if s.broken {
		return 0, errors.New("restore: short record")
	}
	return r.Len(), nil
}

func copyChunk(src, dst *Store) (int, error) {
	var buf bytes.Buffer
	n, err := src.SnapshotChunk(&buf)
	if err == nil {
		_, _ = dst.RestoreSnapshot(&buf) // want `error result of \(\*middletier\.Store\)\.RestoreSnapshot is silently discarded`
	}
	return n, err
}
