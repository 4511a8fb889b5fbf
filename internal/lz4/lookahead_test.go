package lz4

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/disagg/smartds/internal/corpus"
	"github.com/disagg/smartds/internal/rng"
)

// withProcs runs f at GOMAXPROCS n and restores the old value.
func withProcs(n int, f func()) {
	// the lookahead sizes its helper pool from GOMAXPROCS; tests pin it to cover one and several helpers
	old := runtime.GOMAXPROCS(n)
	// restores the test process's GOMAXPROCS
	defer runtime.GOMAXPROCS(old)
	f()
}

// lookaheadBlock draws one test block: random, all zero, incompressible
// (random bytes), shorter than the matcher's limit, or a corpus block.
func lookaheadBlock(r *rng.Source, c *corpus.Corpus) []byte {
	switch r.Intn(5) {
	case 0:
		b := make([]byte, 1+r.Intn(8192))
		for i := range b {
			b[i] = byte(r.Intn(4))
		}
		return b
	case 1:
		return make([]byte, r.Intn(8192))
	case 2:
		b := make([]byte, 4096)
		r.Bytes(b)
		return b
	case 3:
		b := make([]byte, r.Intn(mfLimit+minMatch))
		r.Bytes(b)
		return b
	}
	return c.Block(4096)
}

// TestLookaheadMatchesEncoder is the lookahead's contract: whatever was
// prefetched, replaced, mutated or abandoned, and however far the
// helpers got, Compress returns exactly the synchronous Encoder's bytes
// for the block as it is now. Every Compress counts once, as a helper
// hit or as an inline encode; which one depends on host timing.
func TestLookaheadMatchesEncoder(t *testing.T) {
	c := corpus.New(3)
	for _, procs := range []int{2, 4} {
		withProcs(procs, func() {
			la := NewLookahead(4096)
			ref := NewEncoder(4096)
			want := make([]byte, CompressBound(8192))
			got := make([]byte, CompressBound(8192))
			before, calls := ReadLookaheadStats(), uint64(0)
			check := func(src []byte, level Level) bool {
				calls++
				wn, werr := ref.Compress(want, src, level)
				gn, gerr := la.Compress(got, src, level)
				return wn == gn && (werr == nil) == (gerr == nil) && bytes.Equal(want[:wn], got[:gn])
			}
			f := func(seed uint32) bool {
				r := rng.New(uint64(seed))
				blocks := make([][]byte, 1+r.Intn(3*lookaheadJobs))
				levels := make([]Level, len(blocks))
				for i := range blocks {
					blocks[i] = lookaheadBlock(r, c)
					levels[i] = Level(1 + r.Intn(9))
					la.Prefetch(blocks[i], levels[i])
					if r.Intn(8) == 0 {
						la.Prefetch(blocks[i], levels[i]) // the same buffer again
					}
				}
				for i, src := range blocks {
					level := levels[i]
					switch r.Intn(8) {
					case 0:
						continue // never consumed
					case 1:
						if len(src) > 0 {
							src[r.Intn(len(src))]++ // mutated after its prefetch
						}
					case 2:
						level = Level(1 + r.Intn(9)) // compressed at another level
					}
					if !check(src, level) {
						return false
					}
				}
				return true
			}
			runs := 60
			if testing.Short() {
				runs = 10 // the race detector makes each run slow
			}
			if err := quick.Check(f, &quick.Config{MaxCount: runs}); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			la.Stop()
			s := ReadLookaheadStats()
			if s.Queued != 0 || s.Running != 0 || s.Helpers != 0 {
				t.Fatalf("GOMAXPROCS=%d: after Stop %+v", procs, s)
			}
			if counted := s.Hits + s.Inline - before.Hits - before.Inline; counted != calls {
				t.Fatalf("GOMAXPROCS=%d: %d Compress calls counted as %d hits + inline", procs, calls, counted)
			}
		})
	}
}

// TestLookaheadForgetAndStop: forgotten and stopped filings are never
// used, and a Lookahead works again after Stop.
func TestLookaheadForgetAndStop(t *testing.T) {
	withProcs(2, func() {
		la := NewLookahead(4096)
		c := corpus.New(5)
		src := c.Block(4096)
		seq := la.Prefetch(src, LevelDefault)
		if seq == 0 {
			t.Fatal("Prefetch filed nothing at GOMAXPROCS=2")
		}
		la.Forget(src, seq+1) // a stale ticket changes nothing
		if _, ok := la.filed[&src[0]]; !ok {
			t.Fatal("a stale ticket dropped the filing")
		}
		la.Forget(src, seq)
		if _, ok := la.filed[&src[0]]; ok {
			t.Fatal("Forget left the filing")
		}
		for i := 0; i < 2*lookaheadJobs; i++ {
			la.Prefetch(c.Block(4096), LevelFast)
		}
		la.Stop()
		if len(la.filed) != 0 || len(la.order) != 0 {
			t.Fatalf("Stop left %d filings and %d in order", len(la.filed), len(la.order))
		}
		dst := make([]byte, CompressBound(4096))
		want := make([]byte, CompressBound(4096))
		la.Prefetch(src, LevelHigh)
		n, err := la.Compress(dst, src, LevelHigh)
		wn, _ := NewEncoder(4096).Compress(want, src, LevelHigh)
		if err != nil || !bytes.Equal(dst[:n], want[:wn]) {
			t.Fatalf("after Stop: %v", err)
		}
	})
}

// TestLookaheadOneProcStartsNoHelper: at GOMAXPROCS=1 there is no idle
// core to use, so Prefetch files nothing and no helper ever starts.
func TestLookaheadOneProcStartsNoHelper(t *testing.T) {
	withProcs(1, func() {
		before := ReadLookaheadStats().Started
		la := NewLookahead(4096)
		c := corpus.New(9)
		dst := make([]byte, CompressBound(4096))
		for i := 0; i < 4*lookaheadBatch; i++ {
			src := c.Block(4096)
			if seq := la.Prefetch(src, LevelDefault); seq != 0 {
				t.Fatalf("Prefetch filed ticket %d at GOMAXPROCS=1", seq)
			}
			if _, err := la.Compress(dst, src, LevelDefault); err != nil {
				t.Fatal(err)
			}
		}
		la.Stop()
		if got := ReadLookaheadStats().Started; got != before {
			t.Fatalf("%d helpers started at GOMAXPROCS=1", got-before)
		}
	})
}

// BenchmarkLookahead is one prefetch + compress pair per iteration on
// 4 KiB corpus blocks, each block prefetched lookaheadJobs pairs before
// its Compress: the owner's cost per block once helpers keep up (with
// -cpu 1 every block is encoded inline).
func BenchmarkLookahead(b *testing.B) {
	c := corpus.New(42)
	blocks := make([][]byte, 256)
	for i := range blocks {
		blocks[i] = c.Block(4096)
	}
	const ahead = lookaheadJobs
	dst := make([]byte, CompressBound(4096))
	la := NewLookahead(4096)
	defer la.Stop()
	for i := 0; i < ahead; i++ {
		la.Prefetch(blocks[i], LevelDefault)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.Prefetch(blocks[(i+ahead)%len(blocks)], LevelDefault)
		if _, err := la.Compress(dst, blocks[i%len(blocks)], LevelDefault); err != nil {
			b.Fatal(err)
		}
	}
}
