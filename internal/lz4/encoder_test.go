package lz4

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/disagg/smartds/internal/corpus"
	"github.com/disagg/smartds/internal/rng"
)

func TestEncoderReuseRoundTrip(t *testing.T) {
	// Back-to-back blocks must not contaminate each other through the
	// reused hash table.
	enc := NewEncoder(0) // forces prev growth too
	r := rng.New(5)
	dst := make([]byte, CompressBound(8192))
	for trial := 0; trial < 200; trial++ {
		src := make([]byte, 16+r.Intn(8000))
		if trial%2 == 0 {
			r.Bytes(src)
		} else {
			for i := range src {
				src[i] = byte(trial)
			}
		}
		n, err := enc.Compress(dst, src, LevelDefault)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecompressToBuf(dst[:n], len(src))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestEncoderEmptyAndTiny(t *testing.T) {
	enc := NewEncoder(64)
	dst := make([]byte, 64)
	n, err := enc.Compress(dst, nil, LevelFast)
	if err != nil || n != 1 {
		t.Fatalf("empty: n=%d err=%v", n, err)
	}
	n, err = enc.Compress(dst, []byte("abc"), LevelFast)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecompressToBuf(dst[:n], 3)
	if err != nil || string(out) != "abc" {
		t.Fatalf("tiny: %q %v", out, err)
	}
}

func TestEncoderInvalidInputs(t *testing.T) {
	enc := NewEncoder(16)
	if _, err := enc.Compress(make([]byte, 1), make([]byte, 100), LevelFast); err != ErrShortBuffer {
		t.Fatalf("short dst: %v", err)
	}
	if _, err := enc.Compress(make([]byte, 64), []byte("x"), Level(0)); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestEncoderBaseWrap(t *testing.T) {
	// Start two 4 KiB blocks short of 2^32 so the table clear and base
	// reset land inside the golden run; its bytes must not change.
	const start = 1<<32 - 2*4096
	enc := NewEncoder(4096)
	enc.base = start
	h := sha256.New()
	goldenBlocks(t, enc, h)
	if enc.base >= start {
		t.Fatalf("base %d never wrapped", enc.base)
	}
	goldenStream(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != encoderGolden {
		t.Fatalf("output changed across the wrap: sha256 %s, want %s", got, encoderGolden)
	}

	// A round trip right at the boundary.
	src := bytes.Repeat([]byte("wrap"), 64)
	dst := make([]byte, CompressBound(len(src)))
	enc.base = uint32(1<<32 - 2*len(src))
	for i := 0; i < 4; i++ {
		n, err := enc.Compress(dst, src, LevelDefault)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecompressToBuf(dst[:n], len(src))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("wrap iteration %d failed: %v", i, err)
		}
	}
}

func TestEncoderPropertyRoundTrip(t *testing.T) {
	enc := NewEncoder(4096)
	dst := make([]byte, CompressBound(4096))
	f := func(seed uint32, lvl uint8) bool {
		local := rng.New(uint64(seed))
		src := make([]byte, local.Intn(4096))
		for i := 0; i < len(src); {
			n := local.Intn(64) + 1
			if i+n > len(src) {
				n = len(src) - i
			}
			if local.Float64() < 0.6 {
				b := byte(local.Intn(8))
				for k := 0; k < n; k++ {
					src[i+k] = b
				}
			} else {
				local.Bytes(src[i : i+n])
			}
			i += n
		}
		n, err := enc.Compress(dst, src, Level(int(lvl)%9+1))
		if err != nil {
			return false
		}
		out, err := DecompressToBuf(dst[:n], len(src))
		return err == nil && bytes.Equal(out, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncoderCompress4KFast(b *testing.B) {
	src := benchBlock()
	enc := NewEncoder(len(src))
	dst := make([]byte, CompressBound(len(src)))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Compress(dst, src, LevelFast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncoderCorpus compresses mixed 4 KiB corpus blocks through
// one encoder, and through 16 used round-robin: the shape of a middle
// tier that gives each of its 16 worker cores its own encoder.
func BenchmarkEncoderCorpus(b *testing.B) {
	c := corpus.New(42)
	blocks := make([][]byte, 256)
	for i := range blocks {
		blocks[i] = c.Block(4096)
	}
	dst := make([]byte, CompressBound(4096))
	for _, level := range []Level{LevelFast, LevelDefault, LevelHigh} {
		for _, encoders := range []int{1, 16} {
			b.Run(fmt.Sprintf("level=%d/encoders=%d", level, encoders), func(b *testing.B) {
				encs := make([]*Encoder, encoders)
				for i := range encs {
					encs[i] = NewEncoder(4096)
				}
				b.SetBytes(4096)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := encs[i%encoders].Compress(dst, blocks[i%len(blocks)], level); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
