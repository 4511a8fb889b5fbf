package device

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
)

func newMem(e *sim.Env, capacity int) *Memory {
	return NewMemory(e, "hbm", MemoryConfig{Capacity: capacity, BytesPerSec: 1e9, AccessLatency: 1e-9})
}

func TestAllocFreeBasic(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 1024)
	b, err := m.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 256 || len(b.Bytes()) != 256 {
		t.Fatalf("buffer size %d", b.Size())
	}
	if m.InUse() != 256 {
		t.Fatalf("in use %d", m.InUse())
	}
	b.Free()
	if m.InUse() != 0 {
		t.Fatalf("in use after free %d", m.InUse())
	}
}

func TestAllocExhaustion(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 1000)
	a, _ := m.Alloc(600)
	if _, err := m.Alloc(500); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	b, err := m.Alloc(400)
	if err != nil {
		t.Fatal(err)
	}
	a.Free()
	b.Free()
	// Full capacity available again after coalescing.
	c, err := m.Alloc(1000)
	if err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
	c.Free()
}

func TestCoalescingMiddleFree(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 300)
	a, _ := m.Alloc(100)
	b, _ := m.Alloc(100)
	c, _ := m.Alloc(100)
	a.Free()
	c.Free()
	b.Free() // middle free must merge all three spans
	if _, err := m.Alloc(300); err != nil {
		t.Fatalf("full-arena alloc after scattered frees: %v", err)
	}

	// Every free order of four adjacent buffers, with and without a
	// free tail after them, ends as one span; every intermediate list
	// stays sorted and coalesced.
	for _, tail := range []int{0, 50} {
		forEachPermutation([]int{0, 1, 2, 3}, func(order []int) {
			m := newMem(e, 400+tail)
			var bufs [4]*Buffer
			for i := range bufs {
				bufs[i], _ = m.Alloc(100)
			}
			for _, i := range order {
				bufs[i].Free()
				checkFreeList(t, m)
			}
			if len(m.free) != 1 || m.free[0] != (span{0, 400 + tail}) {
				t.Fatalf("tail %d, free order %v: free list %v, want one span", tail, order, m.free)
			}
		})
	}
}

// forEachPermutation calls fn with every ordering of xs.
func forEachPermutation(xs []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			fn(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			rec(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	rec(0)
}

// checkFreeList asserts the arena invariant: free spans are sorted by
// address, never adjacent, and cover exactly what is not in use.
func checkFreeList(t *testing.T, m *Memory) {
	t.Helper()
	total := 0
	for i, s := range m.free {
		if s.size <= 0 {
			t.Fatalf("empty free span %v in %v", s, m.free)
		}
		if i > 0 && m.free[i-1].addr+m.free[i-1].size >= s.addr {
			t.Fatalf("free list unsorted or uncoalesced: %v", m.free)
		}
		total += s.size
	}
	if total != m.cfg.Capacity-m.inUse {
		t.Fatalf("free spans cover %d bytes, want %d", total, m.cfg.Capacity-m.inUse)
	}
}

// TestFreeListInvariantRandom churns random allocations and frees and
// checks the free list after every free.
func TestFreeListInvariantRandom(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 1<<16)
	g := rng.New(3)
	var live []*Buffer
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && g.Float64() < 0.5 {
			k := g.Intn(len(live))
			live[k].Free()
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			checkFreeList(t, m)
			continue
		}
		if b, err := m.Alloc(1 + g.Intn(2048)); err == nil {
			live = append(live, b)
		}
	}
	for _, b := range live {
		b.Free()
		checkFreeList(t, m)
	}
	if len(m.free) != 1 {
		t.Fatalf("drained arena has free list %v, want one span", m.free)
	}
}

// TestFreeZeroAllocs pins Free's in-place insert: returning a buffer
// to a warm free list allocates nothing.
func TestFreeZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 1<<20)
	keep := make([]*Buffer, 8)
	for i := range keep {
		keep[i], _ = m.Alloc(64) // fragment the arena so frees insert mid-list
	}
	bufs := make([]*Buffer, 4)
	for i := range bufs {
		bufs[i], _ = m.Alloc(64)
	}
	for i := 0; i < len(keep); i += 2 {
		keep[i].Free()
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		bufs[i%4].Free()
		bufs[i%4], _ = m.Alloc(64)
		i++
	})
	// Alloc itself allocates the Buffer and its backing bytes.
	if got > 2 {
		t.Fatalf("Free+Alloc = %g allocs, want at most Alloc's 2", got)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 128)
	b, _ := m.Alloc(64)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

func TestInvalidAllocSize(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 128)
	if _, err := m.Alloc(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
	if _, err := m.Alloc(-5); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestBuffersAreDisjoint(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 1024)
	a, _ := m.Alloc(128)
	b, _ := m.Alloc(128)
	for i := range a.Bytes() {
		a.Bytes()[i] = 0xAA
	}
	for _, v := range b.Bytes() {
		if v == 0xAA {
			t.Fatal("buffers overlap")
		}
	}
}

func TestAllocatorProperty(t *testing.T) {
	// Random alloc/free sequences must preserve: no overlap, inUse
	// accounting exact, and full capacity recoverable at the end.
	f := func(seed uint16) bool {
		e := sim.NewEnv()
		const capacity = 1 << 16
		m := newMem(e, capacity)
		r := rng.New(uint64(seed))
		live := []*Buffer{}
		total := 0
		for op := 0; op < 200; op++ {
			if len(live) > 0 && r.Float64() < 0.45 {
				i := r.Intn(len(live))
				total -= live[i].Size()
				live[i].Free()
				live = append(live[:i], live[i+1:]...)
			} else {
				sz := 1 + r.Intn(2048)
				b, err := m.Alloc(sz)
				if err != nil {
					continue
				}
				live = append(live, b)
				total += sz
			}
			if m.InUse() != total {
				return false
			}
		}
		// overlap check
		type iv struct{ lo, hi int }
		var ivs []iv
		for _, b := range live {
			ivs = append(ivs, iv{b.Addr(), b.Addr() + b.Size()})
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					return false
				}
			}
		}
		for _, b := range live {
			b.Free()
		}
		_, err := m.Alloc(capacity)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryAccessTiming(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 1024)
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		m.Access(p, 1e6) // 1 MB at 1 GB/s = 1 ms
		done = p.Now()
	})
	e.Run(0)
	if math.Abs(done-1e-3) > 1e-6 {
		t.Fatalf("access took %g", done)
	}
	if got := m.BusStats().Work; got != 1e6 {
		t.Fatalf("bus work %g", got)
	}
}

func TestEngineTiming(t *testing.T) {
	e := sim.NewEnv()
	m := NewMemory(e, "hbm", MemoryConfig{Capacity: 1 << 20, BytesPerSec: 1e12, AccessLatency: 1e-9})
	eng := NewEngine(e, "eng", m, 1e9) // 1 GB/s engine
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		eng.Run(p, 1e6, 0.5e6)
		done = p.Now()
	})
	e.Run(0)
	// compute dominates: ~1 ms
	if done < 1e-3 || done > 1.1e-3 {
		t.Fatalf("engine run took %g", done)
	}
	if eng.Processed() != 1e6 {
		t.Fatalf("processed %g", eng.Processed())
	}
}

func TestEngineSerializesJobs(t *testing.T) {
	e := sim.NewEnv()
	m := NewMemory(e, "hbm", MemoryConfig{Capacity: 1 << 20, BytesPerSec: 1e12, AccessLatency: 1e-9})
	eng := NewEngine(e, "eng", m, 1e9)
	var t1, t2 sim.Time
	e.Go("a", func(p *sim.Proc) { eng.Run(p, 1e6, 0); t1 = p.Now() })
	e.Go("b", func(p *sim.Proc) { eng.Run(p, 1e6, 0); t2 = p.Now() })
	e.Run(0)
	if t2 < 1.9e-3 {
		t.Fatalf("second job did not queue: t1=%g t2=%g", t1, t2)
	}
}

func TestEngineBadRatePanics(t *testing.T) {
	e := sim.NewEnv()
	m := newMem(e, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-rate engine did not panic")
		}
	}()
	NewEngine(e, "bad", m, 0)
}

func TestLZ4EngineFunctional(t *testing.T) {
	e := sim.NewEnv()
	m := NewMemory(e, "hbm", MemoryConfig{Capacity: 1 << 20, BytesPerSec: 425e9, AccessLatency: 1e-9})
	eng := NewLZ4Engine(e, "lz4", m, 12.5e9, 4096)
	src := bytes.Repeat([]byte("disaggregated "), 300)[:4096]
	var comp, back []byte
	var compErr, decErr error
	e.Go("p", func(p *sim.Proc) {
		comp = make([]byte, lz4.CompressBound(len(src)))
		var n int
		if n, compErr = eng.Compress(p, comp, src, lz4.LevelDefault); compErr != nil {
			return
		}
		comp = comp[:n]
		back, decErr = eng.Decompress(p, comp, len(src))
	})
	e.Run(0)
	if compErr != nil || decErr != nil {
		t.Fatalf("engine codec errors: %v %v", compErr, decErr)
	}
	if len(comp) >= len(src) {
		t.Fatalf("engine did not compress: %d", len(comp))
	}
	if !bytes.Equal(back, src) {
		t.Fatal("engine round trip mismatch")
	}
	// 4 KB at 12.5 GB/s twice (compress+decompress) ≈ 0.66 us + memory
	if e.Now() > 5e-6 {
		t.Fatalf("engine invocations took %g", e.Now())
	}
}

func TestLZ4EngineGrowsBuffer(t *testing.T) {
	e := sim.NewEnv()
	m := NewMemory(e, "hbm", MemoryConfig{Capacity: 1 << 22, BytesPerSec: 425e9, AccessLatency: 1e-9})
	eng := NewLZ4Engine(e, "lz4", m, 12.5e9, 1024) // maxBlock smaller than input
	src := bytes.Repeat([]byte("x"), 100000)
	e.Go("p", func(p *sim.Proc) {
		if _, err := eng.Compress(p, make([]byte, lz4.CompressBound(len(src))), src, lz4.LevelFast); err != nil {
			t.Errorf("compress: %v", err)
		}
	})
	e.Run(0)
}

func TestFPGAResourceTable3(t *testing.T) {
	board := VCU128()
	acc := AccFootprint()
	lut, reg, bram := acc.Percent(board)
	if math.Abs(lut-8.6) > 0.3 || math.Abs(reg-4.2) > 0.3 || math.Abs(bram-8.5) > 0.3 {
		t.Fatalf("Acc percents = %.1f %.1f %.1f, want ~8.6/4.2/8.5", lut, reg, bram)
	}
	cases := []struct {
		ports    int
		wantLUTs float64
	}{{1, 157}, {2, 313}, {4, 627}, {6, 941}}
	for _, c := range cases {
		r := SmartDSFootprint(c.ports)
		if math.Abs(r.LUTs-c.wantLUTs) > 2 {
			t.Errorf("SmartDS-%d LUTs = %g, want ~%g", c.ports, r.LUTs, c.wantLUTs)
		}
		if lut, reg, bram := r.Percent(board); lut > 100 || reg > 100 || bram > 100 {
			t.Errorf("SmartDS-%d does not fit the VCU128", c.ports)
		}
	}
}

func TestFPGAResourceOps(t *testing.T) {
	a := FPGAResources{1, 2, 3}
	if got := a.Scale(3); got != (FPGAResources{3, 6, 9}) {
		t.Fatalf("Scale = %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid port count did not panic")
		}
	}()
	SmartDSFootprint(0)
}

func TestEngineDownRejectsWork(t *testing.T) {
	e := sim.NewEnv()
	m := NewMemory(e, "hbm", MemoryConfig{Capacity: 1 << 20, BytesPerSec: 425e9, AccessLatency: 1e-9})
	eng := NewLZ4Engine(e, "lz4", m, 12.5e9, 4096)
	eng.SetDown(true)
	if !eng.Down() {
		t.Fatal("engine not reported down")
	}
	src := bytes.Repeat([]byte("x"), 4096)
	var compErr, decErr error
	e.Go("p", func(p *sim.Proc) {
		_, compErr = eng.Compress(p, make([]byte, lz4.CompressBound(len(src))), src, lz4.LevelDefault)
		_, decErr = eng.Decompress(p, src, len(src))
	})
	e.Run(0)
	if compErr != ErrEngineDown || decErr != ErrEngineDown {
		t.Fatalf("down engine returned %v / %v, want ErrEngineDown", compErr, decErr)
	}
	// Restoring the engine brings the codec back.
	eng.SetDown(false)
	compErr, decErr = nil, nil
	var back []byte
	e.Go("p2", func(p *sim.Proc) {
		comp := make([]byte, lz4.CompressBound(len(src)))
		n, err := eng.Compress(p, comp, src, lz4.LevelDefault)
		if err != nil {
			compErr = err
			return
		}
		back, decErr = eng.Decompress(p, comp[:n], len(src))
	})
	e.Run(0)
	if compErr != nil || decErr != nil {
		t.Fatalf("restored engine errors: %v %v", compErr, decErr)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("restored engine round trip mismatch")
	}
}
