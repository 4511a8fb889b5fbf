package trace

import "testing"

// TestSamplingDeterministic pins that the head-sampling decision is a
// pure function of (seed, rate, id): two tracers configured alike keep
// exactly the same id set, and a different seed keeps a different one.
func TestSamplingDeterministic(t *testing.T) {
	a, b := New(16), New(16)
	a.SetSampling(0.01, 42)
	b.SetSampling(0.01, 42)
	other := New(16)
	other.SetSampling(0.01, 43)
	kept, moved := 0, 0
	for id := uint64(0); id < 100000; id++ {
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("id %d: same config disagrees", id)
		}
		if a.Sampled(id) {
			kept++
			if !other.Sampled(id) {
				moved++
			}
		}
	}
	// 1% of 100k with a uniform hash: expect ~1000 keeps.
	if kept < 800 || kept > 1200 {
		t.Fatalf("kept %d of 100000 at rate 0.01, want ~1000", kept)
	}
	if moved == 0 {
		t.Fatalf("seed change did not move the kept set")
	}
}

// TestSamplingRateEdges pins the rate extremes and the default.
func TestSamplingRateEdges(t *testing.T) {
	tr := New(16)
	if tr.ForRequest(7) != tr {
		t.Fatalf("unconfigured tracer must sample everything")
	}
	if tr.SampleRate() != 1 {
		t.Fatalf("default SampleRate = %v, want 1", tr.SampleRate())
	}
	tr.SetSampling(0, 1)
	if tr.ForRequest(7) != nil {
		t.Fatalf("rate 0 must sample nothing")
	}
	tr.SetSampling(1, 1)
	if tr.ForRequest(7) != tr {
		t.Fatalf("rate 1 must return the tracer itself (identity)")
	}
	var nilT *Tracer
	if nilT.ForRequest(7) != nil || nilT.Sampled(7) {
		t.Fatalf("nil tracer must stay nil and unsampled")
	}
	nilT.SetSampling(0.5, 1) // must not panic
	nilT.KeepTail(0, 1, "error", 7)
	if nilT.KeptTail() != 0 {
		t.Fatalf("nil tracer KeptTail = %d, want 0", nilT.KeptTail())
	}
}

// TestKeepTail pins the retroactive tail-keep record: one span on the
// tail track, marked as its request's root, and the counter.
func TestKeepTail(t *testing.T) {
	tr := New(16)
	tr.SetSampling(0, 99)
	tr.KeepTail(1.0, 1.002, "error", 77)
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Component != "tail" || ev.Name != "error" || ev.ID != 77 {
		t.Fatalf("unexpected tail event %+v", ev)
	}
	if ev.Dur < 0.0019 || ev.Dur > 0.0021 {
		t.Fatalf("tail span dur = %v, want ~2ms", ev.Dur)
	}
	if ev.Kind != KindRoot || ev.Req != 77 || ev.At != 1.0 {
		t.Fatalf("tail span is not its request's root: %+v", ev)
	}
	if tr.KeptTail() != 1 {
		t.Fatalf("KeptTail = %d, want 1", tr.KeptTail())
	}
}

// unsampledStagePath mirrors the middle-tier write pipeline's span
// calls for one request: the shape the satellite's 0 allocs/op pin
// must hold on when the request is not head-sampled.
func unsampledStagePath(root *Tracer, id uint64) {
	tr := root.ForRequest(id)
	tr.End(0, "net", "request", id)
	tr.Begin(0, "mt", "parse", id)
	tr.End(1e-6, "mt", "parse", id)
	tr.Begin(1e-6, "mt", "compress", id)
	tr.End(2e-6, "mt", "compress", id)
	tr.Begin(2e-6, "mt", "replicate", id)
	tr.End(5e-6, "mt", "replicate", id)
	tr.Begin(5e-6, "mt", "ack", id)
	tr.End(5e-6, "mt", "ack", id)
	tr.Begin(5e-6, "net", "reply", id)
}

// TestUnsampledPathZeroAllocs is the satellite pin: a request the head
// sampler drops must not allocate anywhere in the stage path — the
// ForRequest branch happens before any span bookkeeping.
func TestUnsampledPathZeroAllocs(t *testing.T) {
	root := New(1 << 10)
	root.SetSampling(0, 42) // drop everything
	allocs := testing.AllocsPerRun(1000, func() {
		unsampledStagePath(root, 12345)
	})
	if allocs != 0 {
		t.Fatalf("unsampled stage path allocates %v/op, want 0", allocs)
	}
	// A nil root tracer (tracing disabled entirely) must also be free.
	allocs = testing.AllocsPerRun(1000, func() {
		unsampledStagePath(nil, 12345)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer stage path allocates %v/op, want 0", allocs)
	}
}

// BenchmarkUnsampledStagePath measures the per-request cost of the
// dropped path (expected: a hash, a compare, and ten nil-check calls).
func BenchmarkUnsampledStagePath(b *testing.B) {
	root := New(1 << 10)
	root.SetSampling(0.01, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Id 3 is dropped at rate 0.01 with seed 42 (asserted below in
		// case the hash ever changes).
		unsampledStagePath(root, 3)
	}
}

func TestBenchmarkIDUnsampled(t *testing.T) {
	root := New(16)
	root.SetSampling(0.01, 42)
	if root.Sampled(3) {
		t.Fatalf("benchmark id 3 is sampled at rate 0.01 seed 42; pick another id")
	}
}
