package corpus

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/lz4"
)

// classRatio compresses n blocks of a class and returns the mean ratio.
func classRatio(t *testing.T, c *Corpus, cl Class, n int) float64 {
	t.Helper()
	enc := lz4.NewEncoder(4096)
	dst := make([]byte, lz4.CompressBound(4096))
	totalIn, totalOut := 0, 0
	for i := 0; i < n; i++ {
		blk := c.BlockOf(cl, 4096)
		m, err := enc.Compress(dst, blk, lz4.LevelDefault)
		if err != nil {
			t.Fatal(err)
		}
		totalIn += len(blk)
		totalOut += m
	}
	return float64(totalIn) / float64(totalOut)
}

func TestDeterministicConstruction(t *testing.T) {
	a, b := New(42), New(42)
	for _, cl := range Classes() {
		if !bytes.Equal(a.streams[cl], b.streams[cl]) {
			t.Fatalf("class %v streams differ for same seed", cl)
		}
	}
	// Sampling is deterministic too.
	for i := 0; i < 10; i++ {
		if !bytes.Equal(a.Block(4096), b.Block(4096)) {
			t.Fatalf("block sample %d differs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	if bytes.Equal(a.streams[Text], b.streams[Text]) {
		t.Fatal("different seeds produced identical text streams")
	}
}

func TestBlockSizesAndWrap(t *testing.T) {
	c := New(3, WithStreamSize(8192))
	for _, size := range []int{1, 512, 4096, 8192, 20000} {
		blk := c.Block(size)
		if len(blk) != size {
			t.Fatalf("Block(%d) returned %d bytes", size, len(blk))
		}
	}
	if c.BlockOf(Text, 0) != nil {
		t.Fatal("zero-size block should be nil")
	}
}

func TestBlockIsACopy(t *testing.T) {
	c := New(4)
	blk := c.BlockOf(Text, 64)
	orig := append([]byte(nil), blk...)
	for i := range blk {
		blk[i] = 0xFF
	}
	blk2 := c.BlockOf(Text, 64)
	_ = blk2
	// The stream must be untouched: resampling can't return 0xFF-filled data
	// unless the generator made it, which Text never does.
	stream := c.streams[Text]
	for _, b := range stream[:64] {
		if b == 0xFF {
			t.Fatal("corpus stream was mutated through a returned block")
		}
	}
	_ = orig
}

func TestInvalidClassPanics(t *testing.T) {
	c := New(5)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid class did not panic")
		}
	}()
	c.BlockOf(Class(99), 128)
}

func TestClassCompressibilityOrdering(t *testing.T) {
	c := New(42)
	const n = 64
	ratios := map[Class]float64{}
	for _, cl := range Classes() {
		ratios[cl] = classRatio(t, c, cl, n)
	}
	t.Logf("class ratios: %v", ratios)

	if ratios[Zero] < 20 {
		t.Errorf("zero pages ratio %.2f, want very high", ratios[Zero])
	}
	if ratios[Random] > 1.05 {
		t.Errorf("random ratio %.2f, want ~1.0", ratios[Random])
	}
	if ratios[Medical] > ratios[Database] {
		t.Errorf("medical (%.2f) should compress worse than database (%.2f)",
			ratios[Medical], ratios[Database])
	}
	if ratios[Text] < 1.5 {
		t.Errorf("text ratio %.2f, want >= 1.5", ratios[Text])
	}
	if ratios[XML] < 2.0 {
		t.Errorf("xml ratio %.2f, want >= 2.0", ratios[XML])
	}
	if ratios[Source] < 2.0 {
		t.Errorf("source ratio %.2f, want >= 2.0", ratios[Source])
	}
}

func TestDefaultMixRatioNearSilesia(t *testing.T) {
	// The paper's corpus compresses around 2.1x under LZ4; our mixed
	// stream should land in the same neighborhood so all derived
	// bandwidth numbers are comparable.
	c := New(42)
	enc := lz4.NewEncoder(4096)
	dst := make([]byte, lz4.CompressBound(4096))
	totalIn, totalOut := 0, 0
	for i := 0; i < 400; i++ {
		blk := c.Block(4096)
		m, err := enc.Compress(dst, blk, lz4.LevelDefault)
		if err != nil {
			t.Fatal(err)
		}
		totalIn += len(blk)
		totalOut += m
	}
	ratio := float64(totalIn) / float64(totalOut)
	t.Logf("default mix LZ4 ratio: %.2fx", ratio)
	if ratio < 1.7 || ratio > 2.6 {
		t.Fatalf("mixed corpus ratio %.2f outside Silesia-like band [1.7, 2.6]", ratio)
	}
}

func TestClassString(t *testing.T) {
	if Text.String() != "text" || Zero.String() != "zero" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class should stringify")
	}
}

// TestZeroClassAllZero checks the all-zero generator, which models
// sparse and freshly allocated blocks.
func TestZeroClassAllZero(t *testing.T) {
	c := New(7, WithStreamSize(1024))
	for _, size := range []int{1, 512, 4096} {
		for _, b := range c.BlockOf(Zero, size) {
			if b != 0 {
				t.Fatalf("Zero block of %d bytes holds nonzero data", size)
			}
		}
	}
}

// TestBlockSequenceDeterministic checks that two same-seed corpora draw
// the same block sequence.
func TestBlockSequenceDeterministic(t *testing.T) {
	a, b := New(42, WithStreamSize(8192)), New(42, WithStreamSize(8192))
	for i := 0; i < 50; i++ {
		if !bytes.Equal(a.Block(4096), b.Block(4096)) {
			t.Fatalf("same-seed corpora diverge at block %d", i)
		}
	}
}

// TestBlockOfWrapsStream checks that a block longer than its class
// stream repeats the stream cyclically from the sampled offset.
func TestBlockOfWrapsStream(t *testing.T) {
	const stream = 1000
	c := New(5, WithStreamSize(stream))
	blk := c.BlockOf(Text, 2500)
	for i := stream; i < len(blk); i++ {
		if blk[i] != blk[i-stream] {
			t.Fatalf("byte %d = %q, want the byte one stream earlier (%q)", i, blk[i], blk[i-stream])
		}
	}
	twice := append(append([]byte(nil), c.streams[Text]...), c.streams[Text]...)
	if !bytes.Contains(twice, blk[:stream]) {
		t.Fatal("block is not a rotation of the class stream")
	}
}
