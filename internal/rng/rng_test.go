package rng

import (
	"math"
	"testing"
)

func TestDeterministicSequence(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	s := New(0)
	v := s.Uint64()
	for i := 0; i < 10; i++ {
		if s.Uint64() != v {
			return // sequence varies; fine
		}
	}
	t.Fatal("zero seed produced a constant sequence")
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		// one collision is suspicious but possible; check a few more
		if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
			t.Fatal("split children identical")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of bounds: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Exp(2.5)
		if v < 0 {
			t.Fatalf("Exp returned negative %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp mean = %g, want ~2.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Norm mean = %g", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Norm stddev = %g", math.Sqrt(variance))
	}
}

func TestBytesDeterministicAndFull(t *testing.T) {
	a, b := New(21), New(21)
	ba, bb := make([]byte, 37), make([]byte, 37)
	a.Bytes(ba)
	b.Bytes(bb)
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatal("Bytes not deterministic")
		}
	}
	// Odd lengths covered: ensure some spread of values.
	uniq := map[byte]bool{}
	for _, v := range ba {
		uniq[v] = true
	}
	if len(uniq) < 10 {
		t.Fatalf("Bytes output suspiciously uniform: %d unique", len(uniq))
	}
}

func TestChoiceDistribution(t *testing.T) {
	s := New(17)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[s.Choice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight option chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weighted ratio = %g, want ~3", ratio)
	}
}

func TestChoicePanics(t *testing.T) {
	s := New(1)
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Choice(%v) did not panic", w)
				}
			}()
			s.Choice(w)
		}()
	}
}

// TestIntnUniform checks that every residue of Intn is drawn close to
// its share.
func TestIntnUniform(t *testing.T) {
	s := New(17)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-draws/n) > 0.05*draws/n {
			t.Fatalf("Intn(%d) drew %d %d times, want ~%d", n, v, c, draws/n)
		}
	}
}

// TestSplitDeterministic checks that a child stream depends only on the
// parent's seed and position, and that Split advances the parent.
func TestSplitDeterministic(t *testing.T) {
	a, b := New(31).Split(), New(31).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed children diverge at draw %d", i)
		}
	}
	split, plain := New(31), New(31)
	split.Split()
	plain.Uint64()
	if split.Uint64() != plain.Uint64() {
		t.Fatal("Split did not consume exactly one parent draw")
	}
}
