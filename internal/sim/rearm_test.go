package sim

import (
	"testing"

	"github.com/disagg/smartds/internal/rng"
)

// fireRec is one dispatched timer callback.
type fireRec struct {
	t   Time
	seq uint64
	id  int
}

// timerScript drives one Env through a random interleaving of At,
// After, Cancel and re-arm operations, some issued from inside firing
// callbacks. With useRearm the re-arms go through Env.rearm; otherwise
// they use the Cancel+At sequence rearm must reproduce. Both variants
// draw the same random stream, so they stay in lockstep exactly as long
// as they dispatch identically.
type timerScript struct {
	env      *Env
	r        *rng.Source
	useRearm bool
	handles  []Timer
	fired    []fireRec
	ops      int
	inPlace  int // re-arms that hit a pending heap entry
}

// delay draws a short delay with frequent exact ties, including zero
// (a re-arm to the current instant).
func (s *timerScript) delay() float64 {
	if s.r.Intn(4) == 0 {
		return 0
	}
	return float64(1+s.r.Intn(6)) * 0.25
}

// callback returns timer id's body: log the dispatch, and sometimes
// issue a further operation from inside the scheduler.
func (s *timerScript) callback(id int) func() {
	return func() {
		s.fired = append(s.fired, fireRec{t: s.env.Now(), seq: s.handles[id].seq, id: id})
		if s.ops < 20000 && s.r.Intn(3) == 0 {
			s.op()
		}
	}
}

func (s *timerScript) op() {
	s.ops++
	if len(s.handles) == 0 || s.r.Intn(3) == 0 {
		id := len(s.handles)
		d := s.delay()
		if s.r.Intn(2) == 0 {
			s.handles = append(s.handles, s.env.After(d, s.callback(id)))
		} else {
			s.handles = append(s.handles, s.env.At(s.env.Now()+d, s.callback(id)))
		}
		return
	}
	i := s.r.Intn(len(s.handles))
	if s.r.Intn(3) == 0 {
		s.handles[i].Cancel()
		return
	}
	// Re-arm: the handle may be pending (heap or lane), cancelled, or
	// already fired.
	t := s.env.Now() + s.delay()
	tm := s.handles[i]
	if !s.useRearm {
		tm.Cancel()
		s.handles[i] = s.env.At(t, s.callback(i))
		return
	}
	if tm.it != nil && tm.it.seq == tm.seq && tm.it.idx >= 0 && t > s.env.Now() {
		s.inPlace++
	}
	s.handles[i] = s.env.rearm(tm, t, s.callback(i))
}

func (s *timerScript) run() {
	for k := 0; k < 3000; k++ {
		s.op()
		if s.r.Intn(2) == 0 {
			s.env.Step()
		}
	}
	s.env.Run(0)
}

// TestRearmMatchesCancelAt: across random interleavings, re-arming in
// place dispatches the same (t, seq, id) sequence as cancelling and
// scheduling afresh, and leaves the calendar in the same state.
func TestRearmMatchesCancelAt(t *testing.T) {
	inPlace := 0
	for seed := uint64(1); seed <= 20; seed++ {
		got := &timerScript{env: NewEnv(), r: rng.New(seed), useRearm: true}
		want := &timerScript{env: NewEnv(), r: rng.New(seed)}
		got.run()
		want.run()
		if len(got.fired) != len(want.fired) {
			t.Fatalf("seed %d: %d dispatches with rearm, %d with Cancel+At", seed, len(got.fired), len(want.fired))
		}
		for i := range want.fired {
			if got.fired[i] != want.fired[i] {
				t.Fatalf("seed %d: dispatch %d = %+v with rearm, %+v with Cancel+At", seed, i, got.fired[i], want.fired[i])
			}
		}
		if got.env.Events() != want.env.Events() || got.env.Pending() != 0 || want.env.Pending() != 0 {
			t.Fatalf("seed %d: events %d vs %d, pending %d vs %d", seed,
				got.env.Events(), want.env.Events(), got.env.Pending(), want.env.Pending())
		}
		inPlace += got.inPlace
	}
	if inPlace < 1000 {
		t.Fatalf("only %d re-arms hit a pending heap entry; the script no longer exercises the in-place path", inPlace)
	}
}

// TestPSLinkCallbackChurnZeroAllocs pins the callback path of the
// processor-sharing link: once the job pool and the calendar are warm,
// overlapping StartFunc transfers, the in-place re-arm of the
// completion check on every admission, and the callbacks firing
// allocate nothing.
func TestPSLinkCallbackChurnZeroAllocs(t *testing.T) {
	env := NewEnv()
	l := env.NewPSLink("churn", 1e9, 0)
	done := 0
	fn := func() { done++ }
	cycle := func() {
		for i := 1; i <= 4; i++ {
			l.StartFunc(float64(1000*i), fn)
		}
		env.Run(0)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("StartFunc churn allocates %.2f objects per cycle, want 0", allocs)
	}
	if done != 4*(64+1001) {
		t.Fatalf("%d completions, want %d", done, 4*(64+1001))
	}
}
