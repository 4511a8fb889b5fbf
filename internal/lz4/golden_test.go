package lz4

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/disagg/smartds/internal/corpus"
	"github.com/disagg/smartds/internal/rng"
)

// encoderGolden is the SHA-256 of every block goldenBlocks compresses
// and of the goldenStream output.
// The compressed sizes drive the simulated replication traffic, so the
// codec's bytes are part of every same-seed report: a matcher change
// that moves this hash moves the reproduced figures too.
const encoderGolden = "1042628786a7a3e102563f6ea103677f3bb975ef5dd66192f2e966b5861e4064"

// goldenBlocks feeds a fixed set of inputs through enc at levels 1–9
// and hashes each output with its length: mixed corpus blocks from two
// seeds, 4 KiB and 64 KiB blocks of every class, random-alphabet
// buffers of 0–70,000 bytes, and buffers that put long runs between
// other data.
func goldenBlocks(t testing.TB, enc *Encoder, h hash.Hash) {
	t.Helper()
	dst := make([]byte, CompressBound(70_000))
	put := func(src []byte) {
		for l := Level(1); l <= LevelMax; l++ {
			n, err := enc.Compress(dst, src, l)
			if err != nil {
				t.Fatalf("compress %d bytes at level %d: %v", len(src), l, err)
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:], uint32(len(src)))
			binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
			h.Write(hdr[:])
			h.Write(dst[:n])
		}
	}
	for _, seed := range []uint64{42, 7} {
		c := corpus.New(seed)
		for i := 0; i < 48; i++ {
			put(c.Block(4096))
		}
		for _, cl := range corpus.Classes() {
			put(c.BlockOf(cl, 4096))
			put(c.BlockOf(cl, 64<<10))
		}
	}
	r := rng.New(15)
	for i := 0; i < 24; i++ {
		src := make([]byte, r.Intn(70_001))
		alpha := 1 + r.Intn(256)
		for j := range src {
			src[j] = byte(r.Intn(alpha))
		}
		put(src)
	}
	// Runs longer than 4096 bytes between other data, so the sparse
	// indexing of long matches decides later matches.
	for i := 0; i < 12; i++ {
		var src []byte
		for len(src) < 60_000 {
			switch r.Intn(3) {
			case 0:
				src = append(src, bytes.Repeat([]byte{byte(r.Intn(4))}, 1+r.Intn(12_000))...)
			case 1:
				if len(src) > 0 {
					from := r.Intn(len(src))
					src = append(src, src[from:from+min(len(src)-from, 1+r.Intn(300))]...)
				}
			default:
				seg := make([]byte, 1+r.Intn(200))
				for j := range seg {
					seg[j] = byte(r.Intn(8))
				}
				src = append(src, seg...)
			}
		}
		put(src)
	}
}

// goldenStream hashes one Writer stream over 1 MiB of mixed corpus data.
func goldenStream(t testing.TB, h hash.Hash) {
	t.Helper()
	c := corpus.New(42)
	var out bytes.Buffer
	w, err := NewWriter(&out, LevelDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 1<<20; n += 4096 {
		if _, err := w.Write(c.Block(4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h.Write(out.Bytes())
}

func TestEncoderGolden(t *testing.T) {
	h := sha256.New()
	goldenBlocks(t, NewEncoder(4096), h)
	goldenStream(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != encoderGolden {
		t.Fatalf("codec output changed: sha256 %s, want %s", got, encoderGolden)
	}
}
