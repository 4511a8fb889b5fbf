package sim

import "testing"

// hold acquires a slot of r, keeps it for d seconds and releases it.
func hold(p *Proc, r *Resource, d float64) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

func TestResourceBasicAcquireRelease(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var order []string
	e.Go("a", func(p *Proc) {
		r.Acquire(p)
		order = append(order, "a-in")
		p.Sleep(2)
		r.Release()
		order = append(order, "a-out")
	})
	e.Go("b", func(p *Proc) {
		r.Acquire(p)
		order = append(order, "b-in")
		p.Sleep(1)
		r.Release()
	})
	e.Run(0)
	want := []string{"a-in", "a-out", "b-in"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want prefix %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %g, want 3", e.Now())
	}
}

func TestResourceMultipleSlots(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 2)
	finish := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			hold(p, r, 2)
			finish[i] = p.Now()
		})
	}
	e.Run(0)
	// Two run [0,2]; third runs [2,4].
	if finish[0] != 2 || finish[1] != 2 || finish[2] != 4 {
		t.Fatalf("finish times = %v", finish)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var got []int
	e.Go("holder", func(p *Proc) { hold(p, r, 1) })
	for i := 0; i < 5; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(float64(i) * 0.01)
			r.Acquire(p)
			got = append(got, i)
			r.Release()
		})
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("acquisition order = %v, want FIFO", got)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceUtilization(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 2)
	e.Go("a", func(p *Proc) { hold(p, r, 4) })
	e.Go("b", func(p *Proc) { hold(p, r, 2) })
	e.Run(0)
	s := r.Snapshot()
	// Slot-seconds: 4 + 2 = 6 over 4 seconds => mean 1.5.
	if !almostEq(s.BusyIntegral, 6, 1e-9) {
		t.Fatalf("busy integral = %g, want 6", s.BusyIntegral)
	}
	if u := UtilizationBetween(ResourceStats{}, s); !almostEq(u, 1.5, 1e-9) {
		t.Fatalf("utilization = %g, want 1.5", u)
	}
}

// TestResourceReleaseUnpinsWaiter pins the slice-head fix: Release nils
// the popped waiter's slot, so the backing array does not keep fired
// events reachable.
func TestResourceReleaseUnpinsWaiter(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	e.Go("holder", func(p *Proc) { hold(p, r, 1) })
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) { hold(p, r, 1) })
	}
	e.Run(0.5)
	if r.QueueLen() != 3 {
		t.Fatalf("queue length = %d, want 3", r.QueueLen())
	}
	backing := r.queue
	e.Run(1.5) // the holder releases at 1, handing the slot to waiter 0
	if backing[0] != nil {
		t.Fatal("Release left the handed-off waiter's event in the backing array")
	}
	if backing[1] == nil || backing[2] == nil {
		t.Fatal("Release cleared slots of waiters still queued")
	}
}

// TestResourceQueueLenAndInUse follows the occupancy accessors through
// contention and drain.
func TestResourceQueueLenAndInUse(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 2)
	for i := 0; i < 5; i++ {
		e.Go("p", func(p *Proc) { hold(p, r, 1) })
	}
	type obs struct{ inUse, queued int }
	var got []obs
	for _, at := range []Time{0.5, 1.5, 2.5, 3.5} {
		e.At(at, func() { got = append(got, obs{r.InUse(), r.QueueLen()}) })
	}
	e.Run(0)
	want := []obs{{2, 3}, {2, 1}, {1, 0}, {0, 0}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occupancy = %v, want %v", got, want)
		}
	}
	if r.Name() != "r" {
		t.Fatalf("Name = %q", r.Name())
	}
}

func TestNewResourceNonPositivePanics(t *testing.T) {
	for _, slots := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewResource with %d slots did not panic", slots)
				}
			}()
			NewEnv().NewResource("r", slots)
		}()
	}
}

// TestUtilizationBetweenZeroWidth checks that a zero-width or backwards
// snapshot pair reports 0 rather than NaN or a negative rate.
func TestUtilizationBetweenZeroWidth(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	e.Go("p", func(p *Proc) { hold(p, r, 2) })
	e.Run(1)
	a := r.Snapshot()
	if u := UtilizationBetween(a, a); u != 0 {
		t.Fatalf("zero-width utilization = %g, want 0", u)
	}
	e.Run(0)
	b := r.Snapshot()
	if u := UtilizationBetween(b, a); u != 0 {
		t.Fatalf("backwards utilization = %g, want 0", u)
	}
	if u := UtilizationBetween(a, b); u != 1 {
		t.Fatalf("utilization over [1, 2] = %g, want 1", u)
	}
}
