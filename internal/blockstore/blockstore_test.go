package blockstore

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Op:        OpWrite,
		Flags:     FlagCompressed | FlagLatencySensitive,
		Level:     6,
		Status:    StatusOK,
		VMID:      0xDEADBEEF12345678,
		ReqID:     42,
		SegmentID: 7,
		ChunkID:   300,
		BlockOff:  15999,
		OrigLen:   4096,
		CRC:       0xCAFEBABE,
	}
	b := h.Encode()
	if len(b) != HeaderSize {
		t.Fatalf("encoded size %d", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(op uint8, flags, level uint8, vm, req, seg uint64, chunk, off, orig, crc uint32) bool {
		h := Header{
			Op:        Op(op%8 + 1),
			Flags:     flags,
			Level:     level,
			VMID:      vm,
			ReqID:     req,
			SegmentID: seg,
			ChunkID:   chunk,
			BlockOff:  off,
			OrigLen:   orig,
			CRC:       crc,
		}
		got, err := Decode(h.Encode())
		if err != nil || got != h {
			return false
		}
		// EncodeTo over a dirty buffer writes exactly Encode's bytes.
		b := bytes.Repeat([]byte{0xA5}, HeaderSize+8)
		h.EncodeTo(b)
		got, err = Decode(b)
		return err == nil && got == h && bytes.Equal(b[:HeaderSize], h.Encode())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Decode(make([]byte, 10)); err == nil {
		t.Fatal("short accepted")
	}
	bad := (&Header{Op: OpWrite}).Encode()
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	badOp := (&Header{Op: OpWrite}).Encode()
	badOp[4] = 200
	if _, err := Decode(badOp); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestMessageSplit(t *testing.T) {
	h := Header{Op: OpReplicate, ReqID: 9}
	payload := []byte("block-data")
	msg := Message(&h, payload)
	if len(msg) != HeaderSize+len(payload) {
		t.Fatalf("message size %d", len(msg))
	}
	got, pl, err := SplitMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != 9 || string(pl) != "block-data" {
		t.Fatalf("split mismatch: %+v %q", got, pl)
	}
	if got.PayloadLen != uint32(len(payload)) {
		t.Fatalf("payload len %d", got.PayloadLen)
	}
	// Length mismatch must error.
	if _, _, err := SplitMessage(msg[:len(msg)-1]); err == nil {
		t.Fatal("truncated message accepted")
	}
}

func TestOpString(t *testing.T) {
	if OpWrite.String() != "write" || OpFetchReply.String() != "fetch-reply" {
		t.Fatal("op names wrong")
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op should stringify")
	}
}

func TestGeometryDefaults(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.BlocksPerChunk() != 16384 {
		t.Fatalf("blocks/chunk = %d, want 16384 (64MB / 4KB)", g.BlocksPerChunk())
	}
	if g.ChunksPerSegment() != 512 {
		t.Fatalf("chunks/segment = %d, want 512 (32GB / 64MB)", g.ChunksPerSegment())
	}
}

func TestResolveInverse(t *testing.T) {
	g := DefaultGeometry()
	f := func(lba uint64) bool {
		lba %= 1 << 40
		loc := g.Resolve(lba)
		return g.LBA(loc) == lba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResolveKnownValues(t *testing.T) {
	g := DefaultGeometry()
	// Block 0.
	if loc := g.Resolve(0); loc != (Location{0, 0, 0}) {
		t.Fatalf("Resolve(0) = %+v", loc)
	}
	// Last block of the first chunk.
	if loc := g.Resolve(16383); loc != (Location{0, 0, 16383}) {
		t.Fatalf("Resolve(16383) = %+v", loc)
	}
	// First block of the second chunk.
	if loc := g.Resolve(16384); loc != (Location{0, 1, 0}) {
		t.Fatalf("Resolve(16384) = %+v", loc)
	}
	// First block of the second segment: 512 chunks * 16384 blocks.
	if loc := g.Resolve(512 * 16384); loc != (Location{1, 0, 0}) {
		t.Fatalf("Resolve(segment boundary) = %+v", loc)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Geometry{
		{BlockSize: 0, ChunkBytes: 64 << 20, SegmentBytes: 32 << 30},
		{BlockSize: 4096, ChunkBytes: 4097, SegmentBytes: 32 << 30},
		{BlockSize: 4096, ChunkBytes: 64 << 20, SegmentBytes: (64 << 20) + 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}
