package corpus

import (
	"bytes"
	"hash/fnv"
	"runtime"
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

// TestStreamsGolden pins every class stream of two seeds. The streams
// feed every functional block, so a generator that emits other bytes
// moves every functional golden; it must fail here first.
func TestStreamsGolden(t *testing.T) {
	want := map[uint64][numClasses]uint64{
		42: {
			Text: 0xc39384e33b7edd4b, Source: 0x4c72ac4d305f5177,
			XML: 0xf203f947cc499dfe, Database: 0xdc103cc918455511,
			Binary: 0x409df492586d7e38, Medical: 0xe4243b296fdc0442,
			Random: 0x77cae9707998bd4e, Zero: 0x9c735bed0a722325,
		},
		7: {
			Text: 0x4293b9808fc89ebf, Source: 0xe6ec34852be75344,
			XML: 0xff06af5ea0cd21eb, Database: 0x244ae09e7f215429,
			Binary: 0x3947c7e209e1b510, Medical: 0x8b5c1a546ba35b84,
			Random: 0xa1372af7daf5acf8, Zero: 0x9c735bed0a722325,
		},
	}
	for _, seed := range []uint64{42, 7} {
		c := New(seed)
		for _, cl := range Classes() {
			h := fnv.New64a()
			h.Write(c.streams[cl])
			if got := h.Sum64(); got != want[seed][cl] {
				t.Errorf("seed %d %v stream FNV-64a %#016x, want %#016x", seed, cl, got, want[seed][cl])
			}
		}
	}
}

// TestStreamsDeterministicAcrossGOMAXPROCS builds the corpus on the
// caller's goroutine alone (GOMAXPROCS=1) and on a pool of generator
// goroutines (GOMAXPROCS=4): the streams must be equal. It stays on
// under -short so the race detector watches the pool.
func TestStreamsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	build := func(procs int) *Corpus {
		// New sizes its generator pool from GOMAXPROCS; the test pins it to cover one worker and the pool
		old := runtime.GOMAXPROCS(procs)
		// restores the test process's GOMAXPROCS
		defer runtime.GOMAXPROCS(old)
		return New(42, WithStreamSize(64<<10))
	}
	single, pooled := build(1), build(4)
	for _, cl := range Classes() {
		if !bytes.Equal(single.streams[cl], pooled.streams[cl]) {
			t.Errorf("%v stream differs between GOMAXPROCS 1 and 4", cl)
		}
	}
}

// TestFillDrawsAsBlock checks that Fill makes Block's draws: two
// same-seed corpora, one sampled by Block and one by Fill, yield the
// same blocks, including across an empty request.
func TestFillDrawsAsBlock(t *testing.T) {
	a, b := New(9, WithStreamSize(8192)), New(9, WithStreamSize(8192))
	for i, size := range []int{4096, 0, 512, 20000, 4096} {
		want := a.Block(size)
		got := make([]byte, size)
		b.Fill(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("draw %d: Fill(%d bytes) differs from Block", i, size)
		}
	}
}

// BenchmarkCorpusNew measures one default-size corpus build, the
// set-up every functional cluster pays in cluster.New.
func BenchmarkCorpusNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(uint64(i))
	}
}
