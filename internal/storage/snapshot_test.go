package storage

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/rng"
)

func fillStore(t *testing.T, n int) *ChunkStore {
	t.Helper()
	s := NewChunkStore()
	r := rng.New(11)
	for i := 0; i < n; i++ {
		key := BlockKey{SegmentID: uint64(i % 2), ChunkID: uint32(i % 3), BlockOff: uint32(i)}
		data := make([]byte, 256+r.Intn(512))
		for k := range data {
			data[k] = byte(i % 7)
		}
		s.AppendFlagged(key, data, uint8(i%2))
	}
	return s
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := fillStore(t, 40)
	var img bytes.Buffer
	n, err := src.Snapshot(&img, lz4.LevelDefault)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("snapshotted %d records, want 40", n)
	}

	dst := NewChunkStore()
	restored, err := dst.RestoreSnapshot(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 40 {
		t.Fatalf("restored %d records", restored)
	}
	// Every live record matches, including flags.
	for i := 0; i < 40; i++ {
		key := BlockKey{SegmentID: uint64(i % 2), ChunkID: uint32(i % 3), BlockOff: uint32(i)}
		a, okA := src.Lookup(key)
		b, okB := dst.Lookup(key)
		if !okA || !okB {
			t.Fatalf("record %v missing after restore", key)
		}
		if !bytes.Equal(a.Data, b.Data) || a.Flags != b.Flags {
			t.Fatalf("record %v differs after restore", key)
		}
	}
}

func TestSnapshotChunkFilters(t *testing.T) {
	src := fillStore(t, 30)
	var img bytes.Buffer
	n, err := src.SnapshotChunk(&img, 0, 0, lz4.LevelFast)
	if err != nil {
		t.Fatal(err)
	}
	// Records with i%2==0 && i%3==0: i in {0,6,12,18,24} => 5, and the
	// snapshot reports their stored bytes.
	want := 0
	for _, i := range []int{0, 6, 12, 18, 24} {
		rec, _ := src.Lookup(BlockKey{BlockOff: uint32(i)})
		want += len(rec.Data)
	}
	if n != want {
		t.Fatalf("chunk snapshot reports %d stored bytes, want %d", n, want)
	}
	dst := NewChunkStore()
	if _, err := dst.RestoreSnapshot(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Records() != 5 {
		t.Fatalf("restored %d records", dst.Records())
	}
}

func TestSnapshotSkipsGarbage(t *testing.T) {
	s := NewChunkStore()
	key := BlockKey{}
	s.Append(key, []byte("old"))
	s.Append(key, []byte("new"))
	var img bytes.Buffer
	n, err := s.Snapshot(&img, lz4.LevelDefault)
	if err != nil || n != 1 {
		t.Fatalf("snapshot of superseded store: n=%d err=%v", n, err)
	}
	dst := NewChunkStore()
	dst.RestoreSnapshot(bytes.NewReader(img.Bytes()))
	rec, _ := dst.Lookup(key)
	if string(rec.Data) != "new" {
		t.Fatalf("restored stale version %q", rec.Data)
	}
}

func TestSnapshotModeledRecords(t *testing.T) {
	s := NewChunkStore()
	s.AppendModeled(BlockKey{BlockOff: 1}, 1234, 2)
	var img bytes.Buffer
	if _, err := s.Snapshot(&img, lz4.LevelDefault); err != nil {
		t.Fatal(err)
	}
	dst := NewChunkStore()
	if _, err := dst.RestoreSnapshot(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	rec, ok := dst.Lookup(BlockKey{BlockOff: 1})
	if !ok || rec.Data != nil || rec.SizeHint != 1234 || rec.Flags != 2 {
		t.Fatalf("modeled record mangled: %+v", rec)
	}
}

func TestRestoreCorruptSnapshot(t *testing.T) {
	src := fillStore(t, 10)
	var img bytes.Buffer
	src.Snapshot(&img, lz4.LevelDefault)
	good := img.Bytes()

	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] },
		func(b []byte) []byte { b = append([]byte(nil), b...); b[10] ^= 0xFF; return b },
		func(b []byte) []byte { return []byte("not a snapshot at all") },
	} {
		dst := NewChunkStore()
		if _, err := dst.RestoreSnapshot(bytes.NewReader(mutate(good))); err == nil {
			t.Fatal("corrupt snapshot accepted")
		}
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewChunkStore()
	var img bytes.Buffer
	n, err := s.Snapshot(&img, lz4.LevelDefault)
	if err != nil || n != 0 {
		t.Fatalf("empty snapshot: n=%d err=%v", n, err)
	}
	dst := NewChunkStore()
	restored, err := dst.RestoreSnapshot(bytes.NewReader(img.Bytes()))
	if err != nil || restored != 0 {
		t.Fatalf("empty restore: n=%d err=%v", restored, err)
	}
}
