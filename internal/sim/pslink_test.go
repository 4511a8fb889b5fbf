package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPSLinkSingleTransfer(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100) // 100 B/s
	var done Time
	e.Go("p", func(p *Proc) {
		l.Transfer(p, 200)
		done = p.Now()
	})
	e.Run(0)
	if !almostEq(done, 2.0, 1e-9) {
		t.Fatalf("single transfer finished at %g, want 2.0", done)
	}
}

func TestPSLinkFairSharing(t *testing.T) {
	// Two equal transfers starting together each get half the rate.
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	var t1, t2 Time
	e.Go("a", func(p *Proc) { l.Transfer(p, 100); t1 = p.Now() })
	e.Go("b", func(p *Proc) { l.Transfer(p, 100); t2 = p.Now() })
	e.Run(0)
	if !almostEq(t1, 2.0, 1e-9) || !almostEq(t2, 2.0, 1e-9) {
		t.Fatalf("shared transfers finished at %g, %g; want 2.0 both", t1, t2)
	}
}

func TestPSLinkLateArrivalSlowsFirst(t *testing.T) {
	// A 100B job alone for 0.5s does 50B; then shares -> remaining 50B at
	// 50B/s takes 1s more => finishes at 1.5. Second job: 100B at 50B/s
	// until first leaves (50B by t=1.5), then full rate: +0.5s => 2.0.
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	var t1, t2 Time
	e.Go("a", func(p *Proc) { l.Transfer(p, 100); t1 = p.Now() })
	e.Go("b", func(p *Proc) {
		p.Sleep(0.5)
		l.Transfer(p, 100)
		t2 = p.Now()
	})
	e.Run(0)
	if !almostEq(t1, 1.5, 1e-9) {
		t.Fatalf("first transfer finished at %g, want 1.5", t1)
	}
	if !almostEq(t2, 2.0, 1e-9) {
		t.Fatalf("second transfer finished at %g, want 2.0", t2)
	}
}

func TestPSLinkZeroBytes(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	done := false
	e.Go("p", func(p *Proc) {
		l.Transfer(p, 0)
		done = true
	})
	e.Run(0)
	if !done || e.Now() != 0 {
		t.Fatalf("zero-byte transfer: done=%v now=%g", done, e.Now())
	}
}

func TestPSLinkWorkConservation(t *testing.T) {
	// However transfers overlap, total completion time equals total
	// bytes / rate when the link never idles.
	e := NewEnv()
	l := e.NewPSLink("l", 1000)
	const n = 20
	total := 0.0
	var last Time
	for i := 0; i < n; i++ {
		b := float64(100 + 37*i)
		total += b
		e.Go("p", func(p *Proc) {
			l.Transfer(p, b)
			last = p.Now()
		})
	}
	e.Run(0)
	want := total / 1000
	if !almostEq(last, want, 1e-6) {
		t.Fatalf("makespan %g, want %g", last, want)
	}
	st := l.Snapshot()
	if !almostEq(st.Work, total, 1e-3) {
		t.Fatalf("work accounting %g, want %g", st.Work, total)
	}
	if !almostEq(st.BusyTime, want, 1e-6) {
		t.Fatalf("busy time %g, want %g", st.BusyTime, want)
	}
}

func TestPSLinkSnapshotBandwidth(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	e.Go("p", func(p *Proc) { l.Transfer(p, 1000) })
	var s0, s1 LinkStats
	e.After(1, func() { s0 = l.Snapshot() })
	e.After(3, func() { s1 = l.Snapshot() })
	e.Run(4)
	bw := BandwidthBetween(s0, s1)
	if !almostEq(bw, 100, 1e-6) {
		t.Fatalf("bandwidth over saturated window = %g, want 100", bw)
	}
}

func TestPSLinkConservationProperty(t *testing.T) {
	// Property: for any set of (start delay, size) jobs, the sum of bytes
	// reported moved equals the sum of job sizes once all complete, and
	// no job finishes before bytes/rate after its start.
	f := func(seed uint8) bool {
		e := NewEnv()
		rate := 100.0
		l := e.NewPSLink("l", rate)
		n := int(seed%7) + 1
		total := 0.0
		ok := true
		for i := 0; i < n; i++ {
			delay := float64((int(seed)*7+i*13)%50) / 10
			size := float64((int(seed)*31+i*101)%400 + 1)
			total += size
			e.Go("p", func(p *Proc) {
				p.Sleep(delay)
				start := p.Now()
				l.Transfer(p, size)
				if p.Now()-start < size/rate-1e-9 {
					ok = false
				}
			})
		}
		e.Run(0)
		st := l.Snapshot()
		return ok && almostEq(st.Work, total, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPSLinkBadRatePanics(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-rate link did not panic")
		}
	}()
	e.NewPSLink("bad", 0)
}

// TestPSLinkSnapshotIsPure samples a busy link between every pair of
// events and checks that no completion moves by even one ulp: a
// snapshot reads the link's progress without applying it.
func TestPSLinkSnapshotIsPure(t *testing.T) {
	run := func(sample bool) []Time {
		e := NewEnv()
		l := e.NewPSLink("l", 100)
		var done []Time
		for i := 0; i < 6; i++ {
			delay, size := 0.137*float64(i), 37.3+float64(i*i)*11.1
			e.Go("p", func(p *Proc) {
				p.Sleep(delay)
				l.Transfer(p, size)
				done = append(done, p.Now())
			})
		}
		if sample {
			for k := 1; k < 100; k++ {
				e.After(0.0731*float64(k), func() { l.Snapshot() })
			}
		}
		e.Run(0)
		return done
	}
	bare, sampled := run(false), run(true)
	if len(bare) != 6 || len(sampled) != 6 {
		t.Fatalf("%d and %d completions, want 6", len(bare), len(sampled))
	}
	for i := range bare {
		if bare[i] != sampled[i] {
			t.Fatalf("completion %d at %v sampled vs %v bare", i, sampled[i], bare[i])
		}
	}
}

// psCase is one generated processor-sharing scenario: transfers that
// arrive at fixed instants on a link whose rate may change once.
type psCase struct {
	rate     float64
	arrive   []Time
	bytes    []float64
	changeAt Time // instant of the SetRate; negative for none
	newRate  float64
}

// refPS is the brute-force model of the link. It steps from one
// arrival, completion or rate change to the next, and between them
// moves every active transfer at rate/n. It returns each transfer's
// completion instant and the time at least one transfer was active.
func refPS(c psCase) (done []Time, busy float64) {
	n := len(c.bytes)
	done = make([]Time, n)
	rem := make([]float64, n)
	order := make([]int, n) // arrival order; ties keep index order
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return c.arrive[order[a]] < c.arrive[order[b]] })
	var active []int
	now, rate, changeAt, next := 0.0, c.rate, c.changeAt, 0
	for next < n || len(active) > 0 {
		first := -1 // the active transfer with the least work left
		for _, j := range active {
			if first < 0 || rem[j] < rem[first] {
				first = j
			}
		}
		tc, ta, tr := math.Inf(1), math.Inf(1), math.Inf(1)
		if first >= 0 {
			tc = now + rem[first]*float64(len(active))/rate
		}
		if next < n {
			ta = c.arrive[order[next]]
		}
		if changeAt >= 0 {
			tr = changeAt
		}
		tn := min(tc, ta, tr)
		if len(active) > 0 {
			busy += tn - now
			moved := rate / float64(len(active)) * (tn - now)
			for _, j := range active {
				rem[j] -= moved
			}
		}
		now = tn
		if tn == tc {
			rem[first] = 0
		}
		kept := active[:0]
		for _, j := range active {
			if rem[j] <= 1e-9*c.bytes[j] {
				done[j] = now
			} else {
				kept = append(kept, j)
			}
		}
		active = kept
		if tn == tr {
			rate, changeAt = c.newRate, -1
		}
		for next < n && c.arrive[order[next]] == now {
			j := order[next]
			next++
			if c.bytes[j] <= 0 {
				done[j] = now
				continue
			}
			rem[j] = c.bytes[j]
			active = append(active, j)
		}
	}
	return done, busy
}

// runPS plays a case on a PSLink and returns each transfer's
// completion instant and the link's final counters.
func runPS(c psCase) ([]Time, LinkStats) {
	e := NewEnv()
	l := e.NewPSLink("ref", c.rate)
	done := make([]Time, len(c.bytes))
	for j := range c.bytes {
		e.At(c.arrive[j], func() { l.StartFunc(c.bytes[j], func() { done[j] = e.Now() }) })
	}
	if c.changeAt >= 0 {
		e.At(c.changeAt, func() { l.SetRate(c.newRate) })
	}
	e.Run(0)
	return done, l.Snapshot()
}

// genPSCase draws a case from seed: 1–24 transfers on one of four
// link rates, a third of them arriving together with the one before,
// one in ten a large flow 100x the usual size, a few of no bytes, and
// in a quarter of the cases one rate change mid-run.
func genPSCase(seed uint64) psCase {
	s := seed
	next := func(n int) int { // splitmix64
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int((z ^ z>>31) % uint64(n))
	}
	rates := []float64{100, 1e3, 12.5e9, 3.2e10}
	c := psCase{rate: rates[next(len(rates))], changeAt: -1}
	mean := 500 / c.rate // time to move a typical transfer alone
	at := 0.0
	for j, n := 0, 1+next(24); j < n; j++ {
		if j > 0 && next(3) != 0 {
			at += mean * float64(next(2000)) / 1000
		}
		size := float64(1 + next(1000))
		switch next(20) {
		case 0, 1:
			size *= 100
		case 2:
			size = 0
		}
		c.arrive = append(c.arrive, at)
		c.bytes = append(c.bytes, size)
	}
	if next(4) == 0 {
		c.changeAt = (at + mean) * float64(next(1000)) / 1000
		c.newRate = c.rate * float64(1+next(8)) / 4
	}
	return c
}

// largeThenBurst is one large transfer, a burst of small ones while it
// runs, and a second identical burst well after it drains.
func largeThenBurst() psCase {
	c := psCase{rate: 1e3, arrive: []Time{0}, bytes: []float64{1e6}, changeAt: -1}
	for _, at := range []Time{100, 5000} {
		for i := 0; i < 16; i++ {
			c.arrive = append(c.arrive, at+0.25*float64(i%4))
			c.bytes = append(c.bytes, float64(1000+100*i))
		}
	}
	return c
}

// TestPSLinkMatchesReference checks PSLink's completion times, work
// and busy time against the brute-force fair-share model over 256
// generated cases and one large transfer followed by bursts.
func TestPSLinkMatchesReference(t *testing.T) {
	cases := []psCase{largeThenBurst()}
	for seed := uint64(1); seed <= 256; seed++ {
		cases = append(cases, genPSCase(seed))
	}
	for k, c := range cases {
		want, busy := refPS(c)
		got, st := runPS(c)
		horizon, total, slowest := 0.0, 0.0, c.rate
		for j := range want {
			horizon, total = max(horizon, want[j]), total+c.bytes[j]
		}
		if c.changeAt >= 0 {
			slowest = min(slowest, c.newRate)
		}
		// Float drift over the run, plus the link's 1e-6-byte
		// completion slack at the slowest per-transfer share.
		tol := 1e-9*horizon + 1e-6*float64(len(want))/slowest
		for j := range want {
			if !almostEq(got[j], want[j], tol) {
				t.Fatalf("case %d (%+v): transfer %d done at %v, reference %v", k, c, j, got[j], want[j])
			}
		}
		if !almostEq(st.Work, total, 1e-9*total) {
			t.Fatalf("case %d: work %v, want %v", k, st.Work, total)
		}
		if !almostEq(st.BusyTime, busy, tol) {
			t.Fatalf("case %d: busy %v, reference %v", k, st.BusyTime, busy)
		}
	}
}

// TestPSLinkForgetsLargeFlow checks that a link keeps no state from
// one larger flow once it drains: a burst after it completes at the
// same offsets as the same burst on a fresh link.
func TestPSLinkForgetsLargeFlow(t *testing.T) {
	c := largeThenBurst()
	got, _ := runPS(c)
	fresh := psCase{rate: c.rate, changeAt: -1}
	const late = 17 // the first transfer of the second burst
	for j := late; j < len(c.bytes); j++ {
		fresh.arrive = append(fresh.arrive, c.arrive[j]-c.arrive[late])
		fresh.bytes = append(fresh.bytes, c.bytes[j])
	}
	want, _ := runPS(fresh)
	for j := range want {
		if off := got[late+j] - c.arrive[late]; !almostEq(off, want[j], 1e-9) {
			t.Fatalf("burst transfer %d done %v after its burst, %v on a fresh link", j, off, want[j])
		}
	}
	if got[0] <= c.arrive[1] || got[0] >= c.arrive[late] {
		t.Fatalf("large transfer done at %v, want it to drain between the bursts", got[0])
	}
}

// TestPSLinkSetRateMidTransfer checks that SetRate applies the progress
// made so far at the old rate and moves the rest at the new one. Two
// transfers of 100 B and 300 B share 100 B/s, so by t=1 each has moved
// 50 B. At 200 B/s the smaller one moves its last 50 B by t=1.5, and
// the larger one its last 200 B alone by t=2.5.
func TestPSLinkSetRateMidTransfer(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	var ta, tb Time
	l.StartFunc(100, func() { ta = e.Now() })
	l.StartFunc(300, func() { tb = e.Now() })
	e.At(1, func() { l.SetRate(200) })
	e.Run(0)
	if !almostEq(ta, 1.5, 1e-9) || !almostEq(tb, 2.5, 1e-9) {
		t.Fatalf("transfers done at %g and %g, want 1.5 and 2.5", ta, tb)
	}
	if st := l.Snapshot(); !almostEq(st.Work, 400, 1e-6) || !almostEq(st.BusyTime, 2.5, 1e-9) {
		t.Fatalf("work %g busy %g, want 400 and 2.5", st.Work, st.BusyTime)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRate(0) did not panic")
		}
	}()
	l.SetRate(0)
}

// TestPSLinkSameInstantCompletionsInAdmissionOrder checks that
// transfers finishing at one instant fire in the order they were
// admitted, events and callbacks alike, whatever order the finish-tag
// heap pops them in.
func TestPSLinkSameInstantCompletionsInAdmissionOrder(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	var order []int
	var at []Time
	for i := 0; i < 9; i++ {
		record := func() { order, at = append(order, i), append(at, e.Now()) }
		if i%3 == 0 {
			l.Start(50).OnTrigger(func(interface{}) { record() })
		} else {
			l.StartFunc(50, record)
		}
	}
	e.Run(0)
	if len(order) != 9 {
		t.Fatalf("%d completions, want 9", len(order))
	}
	for k := range order {
		if order[k] != k || !almostEq(at[k], 4.5, 1e-9) {
			t.Fatalf("completions %v at %v, want 0..8 all at 4.5", order, at)
		}
	}
}

// TestPSLinkIdleGapNotBusy checks that an idle gap between two
// transfers counts as neither busy time nor work, and that the link
// drained before the second transfer serves it at the full rate.
func TestPSLinkIdleGapNotBusy(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	var t1, t2 Time
	l.StartFunc(100, func() { t1 = e.Now() })
	e.At(3, func() { l.StartFunc(100, func() { t2 = e.Now() }) })
	var st LinkStats
	e.At(5, func() { st = l.Snapshot() })
	e.Run(0)
	if !almostEq(t1, 1, 1e-9) || !almostEq(t2, 4, 1e-9) {
		t.Fatalf("transfers done at %g and %g, want 1 and 4", t1, t2)
	}
	if !almostEq(st.Work, 200, 1e-6) || !almostEq(st.BusyTime, 2, 1e-9) || st.At != 5 {
		t.Fatalf("snapshot %+v, want work 200 and busy 2 at 5", st)
	}
}

// TestPSLinkStartZeroBytes checks that a transfer of no bytes completes
// at once without entering the link: Start returns a fired event and
// StartFunc calls its callback before returning, or does nothing when
// the callback is nil.
func TestPSLinkStartZeroBytes(t *testing.T) {
	e := NewEnv()
	l := e.NewPSLink("l", 100)
	if ev := l.Start(0); !ev.Done() {
		t.Fatal("Start(0) returned an event that has not fired")
	}
	called := false
	l.StartFunc(0, func() { called = true })
	l.StartFunc(0, nil)
	if !called {
		t.Fatal("StartFunc(0) did not call its callback at once")
	}
	if l.InFlight() != 0 || l.Snapshot().BusyTime != 0 {
		t.Fatalf("zero-byte transfers entered the link: %d in flight", l.InFlight())
	}
}
