package storage

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/lz4"
)

// TestAppendVersionedGuard pins the idempotence guard replicate
// retries and quorum read-repair lean on: a versioned append never
// replaces a record that already holds the same or a newer writer
// version (the refusal hands back the standing record), so a resent
// frame or a racing repair cannot roll a block back.
func TestAppendVersionedGuard(t *testing.T) {
	s := NewChunkStore()
	key := BlockKey{SegmentID: 1, ChunkID: 2, BlockOff: 3}

	first := s.AppendVersioned(key, []byte("v5"), 0, 5)
	if first == nil || first.WriteVersion != 5 {
		t.Fatal("first versioned append refused")
	}
	// Same version again: the retry must be a no-op returning the
	// standing record.
	if rec := s.AppendVersioned(key, []byte("v5-retry"), 0, 5); rec != first {
		t.Fatal("replay of the same version replaced the record")
	}
	// Older version: a straggler from an abandoned fan-out must lose.
	if rec := s.AppendVersioned(key, []byte("v4"), 0, 4); rec != first {
		t.Fatal("older version overwrote a newer record")
	}
	if got, _ := s.Lookup(key); !bytes.Equal(got.Data, []byte("v5")) {
		t.Fatalf("store holds %q, want the version-5 bytes", got.Data)
	}
	// Newer version wins.
	if rec := s.AppendVersioned(key, []byte("v6"), 0, 6); rec == first {
		t.Fatal("newer version refused")
	}
	got, _ := s.Lookup(key)
	if !bytes.Equal(got.Data, []byte("v6")) || got.WriteVersion != 6 {
		t.Fatalf("store holds %q version %d, want v6/6", got.Data, got.WriteVersion)
	}
	// Version 0 (unversioned legacy path) always appends.
	s.AppendVersioned(key, []byte("v0"), 0, 0)
	if got, _ := s.Lookup(key); !bytes.Equal(got.Data, []byte("v0")) {
		t.Fatal("unversioned append refused")
	}

	// Modeled appends follow the same guard.
	mkey := BlockKey{SegmentID: 9, ChunkID: 0, BlockOff: 0}
	mfirst := s.AppendModeledVersioned(mkey, 4096, 0, 8)
	if mfirst == nil || mfirst.WriteVersion != 8 {
		t.Fatal("modeled append refused")
	}
	if rec := s.AppendModeledVersioned(mkey, 4096, 0, 7); rec != mfirst {
		t.Fatal("older modeled version replaced the record")
	}
}

// TestSnapshotPreservesWriteVersion pins the backfill contract: a
// snapshot/restore cycle carries every record's writer version, so a
// substituted replica refuses stale re-sends exactly like the replica
// it replaced would have.
func TestSnapshotPreservesWriteVersion(t *testing.T) {
	src := NewChunkStore()
	key := BlockKey{SegmentID: 4, ChunkID: 1, BlockOff: 7}
	mkey := BlockKey{SegmentID: 4, ChunkID: 1, BlockOff: 8}
	src.AppendVersioned(key, []byte("payload"), 0, 42)
	src.AppendModeledVersioned(mkey, 512, 0, 43)

	var img bytes.Buffer
	// The copy is charged at the records' stored sizes: 7 payload bytes
	// plus the modeled record's 512.
	if n, err := src.SnapshotChunk(&img, 4, 1, lz4.LevelFast); err != nil || n != 7+512 {
		t.Fatalf("snapshot reports %d stored bytes, err %v; want %d", n, err, 7+512)
	}
	dst := NewChunkStore()
	if n, err := dst.RestoreSnapshot(bytes.NewReader(img.Bytes())); err != nil || n != 2 {
		t.Fatalf("restored %d records, err %v", n, err)
	}
	rec, ok := dst.Lookup(key)
	if !ok || rec.WriteVersion != 42 {
		t.Fatalf("restored record has version %d, want 42", rec.WriteVersion)
	}
	mrec, ok := dst.Lookup(mkey)
	if !ok || mrec.WriteVersion != 43 {
		t.Fatalf("restored modeled record has version %d, want 43", mrec.WriteVersion)
	}
	// The restored replica enforces the guard against stale re-sends.
	dst.AppendVersioned(key, []byte("stale"), 0, 41)
	if got, _ := dst.Lookup(key); !bytes.Equal(got.Data, []byte("payload")) {
		t.Fatal("restored store accepted a write older than the snapshot")
	}
	dst.AppendVersioned(key, []byte("fresh"), 0, 44)
	if got, _ := dst.Lookup(key); !bytes.Equal(got.Data, []byte("fresh")) {
		t.Fatal("restored store refused a newer write")
	}
}
