package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, "c", "n", "")
	tr.Begin(1, "c", "n", 1)
	tr.End(2, "c", "n", 1)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer leaked state")
	}
}

func TestEmitAndOrder(t *testing.T) {
	tr := New(16)
	tr.Emit(0.001, "a", "x", "one")
	tr.Emit(0.002, "b", "y", "two")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Detail != "one" || evs[1].Detail != "two" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(float64(i), "c", "n", "")
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("kept %d events", len(evs))
	}
	// Oldest kept is event 6, newest 9, in order.
	for i, ev := range evs {
		if ev.At != float64(6+i) {
			t.Fatalf("wrapped order broken: %+v", evs)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

func TestSpans(t *testing.T) {
	tr := New(64)
	tr.Begin(1.0, "mt", "write", 1)
	tr.Begin(1.5, "mt", "write", 2)
	tr.End(2.0, "mt", "write", 1)  // 1.0s
	tr.End(2.0, "mt", "write", 2)  // 0.5s
	tr.End(9.9, "mt", "write", 99) // unmatched
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %+v", evs)
	}
	// Spans are recorded at End, stamped with their start time.
	for i, want := range []struct {
		at, dur float64
		id      uint64
	}{{1.0, 1.0, 1}, {1.5, 0.5, 2}} {
		ev := evs[i]
		if ev.Component != "mt" || ev.Name != "write" || ev.ID != want.id ||
			ev.At != want.at || math.Abs(ev.Dur-want.dur) > 1e-12 {
			t.Fatalf("span %d = %+v", i, ev)
		}
	}
	if ev := evs[2]; ev.Name != "write:end-unmatched" || ev.Dur != 0 || ev.Detail != "id=99" {
		t.Fatalf("unmatched End = %+v", ev)
	}
}

// spanEvents returns the completed spans among the recorded events.
func spanEvents(tr *Tracer) []Event {
	var out []Event
	for _, ev := range tr.Events() {
		if ev.Dur > 0 {
			out = append(out, ev)
		}
	}
	return out
}

func TestSpanPercentiles(t *testing.T) {
	tr := New(1 << 12)
	for i := 0; i < 1000; i++ {
		tr.Begin(0, "mt", "stage", uint64(i))
		tr.End(1e-6*float64(i+1), "mt", "stage", uint64(i)) // 1us..1000us
	}
	// Every duration is kept exactly, so percentiles over the ring are
	// exact order statistics rather than histogram-bucket estimates.
	spans := spanEvents(tr)
	if len(spans) != 1000 {
		t.Fatalf("recorded %d spans, want 1000", len(spans))
	}
	for i, ev := range spans {
		if ev.ID != uint64(i) || ev.Dur != 1e-6*float64(i+1) {
			t.Fatalf("span %d = %+v, want dur %gus", i, ev, float64(i+1))
		}
	}
	if p50, max := spans[499].Dur, spans[999].Dur; p50 != 500e-6 || max != 1000e-6 {
		t.Fatalf("p50 = %g, max = %g, want 500us and 1000us exact", p50, max)
	}
}

func TestOpenSpansBalanced(t *testing.T) {
	tr := New(64)
	tr.Begin(1.0, "mt", "write", 1)
	tr.Begin(1.1, "mt", "write", 2)
	tr.End(2.0, "mt", "write", 1)
	if got := tr.Leaked(); got != 0 {
		t.Fatalf("leaked with one span still open = %d", got)
	}
	if got := tr.OpenSpans(); got != 1 {
		t.Fatalf("open spans = %d, want 1", got)
	}
	// Balanced Begin/End traffic never leaks.
	tr2 := New(64)
	for i := 0; i < 1000; i++ {
		tr2.Begin(float64(i), "c", "s", uint64(i))
		tr2.End(float64(i)+0.5, "c", "s", uint64(i))
	}
	if tr2.Leaked() != 0 || tr2.OpenSpans() != 0 {
		t.Fatalf("balanced spans leaked %d, left %d open", tr2.Leaked(), tr2.OpenSpans())
	}
}

func TestOpenTableBounded(t *testing.T) {
	tr := New(16)
	tr.maxOpen = 8
	for i := 0; i < 100; i++ {
		tr.Begin(float64(i), "c", "orphan", uint64(i))
	}
	if got := tr.OpenSpans(); got > 8 {
		t.Fatalf("open table grew to %d despite maxOpen=8", got)
	}
	if tr.Leaked() != 92 {
		t.Fatalf("leaked = %d, want 92 evictions", tr.Leaked())
	}
	// The survivors are the newest spans: ending one still works.
	tr.End(200, "c", "orphan", 99)
	if got := spanEvents(tr); len(got) != 1 || got[0].ID != 99 || got[0].At != 99 {
		t.Fatalf("newest span lost: %+v", got)
	}
}

func TestReBeginCountsLeak(t *testing.T) {
	tr := New(16)
	tr.Begin(1, "c", "s", 7)
	tr.Begin(2, "c", "s", 7) // same key re-begun while open
	tr.End(3, "c", "s", 7)
	if tr.Leaked() != 1 {
		t.Fatalf("re-begin leak = %d, want 1", tr.Leaked())
	}
	spans := spanEvents(tr)
	if len(spans) != 1 || spans[0].At != 2 || math.Abs(spans[0].Dur-1.0) > 1e-12 {
		t.Fatalf("span paired with wrong begin: %+v", spans)
	}
}

func TestCounterEvents(t *testing.T) {
	tr := New(16)
	tr.Counter(0.001, "pslink.mt", 42.5)
	tr.Counter(0.002, "pslink.mt", 43.5)
	evs := tr.Events()
	if len(evs) != 2 || !evs[0].Counter || evs[0].Value != 42.5 {
		t.Fatalf("counter events = %+v", evs)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := New(64)
	tr.Begin(1e-6, "mt", "parse", 1)
	tr.End(2e-6, "mt", "parse", 1)
	tr.Emit(3e-6, "mt", "drop", "why")
	tr.Counter(4e-6, "bw", 99)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var parsed []map[string]interface{}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, out)
	}
	var phases []string
	for _, ev := range parsed {
		phases = append(phases, ev["ph"].(string))
	}
	var bCount, eCount int
	for _, ph := range phases {
		switch ph {
		case "B":
			bCount++
		case "E":
			eCount++
		}
	}
	if bCount != 1 || eCount != 1 {
		t.Fatalf("span not exported as matched B/E pair: phases=%v", phases)
	}
	if !strings.Contains(out, `"ph":"C"`) || !strings.Contains(out, `"ph":"i"`) {
		t.Fatalf("missing counter or instant events:\n%s", out)
	}
	if !strings.Contains(out, `"thread_name"`) {
		t.Fatalf("missing thread metadata:\n%s", out)
	}
	// ts of the B event is 1us; E at 2us.
	for _, ev := range parsed {
		if ev["ph"] == "B" && ev["ts"].(float64) != 1 {
			t.Fatalf("B ts = %v, want 1 (virtual us)", ev["ts"])
		}
		if ev["ph"] == "E" && ev["ts"].(float64) != 2 {
			t.Fatalf("E ts = %v, want 2 (virtual us)", ev["ts"])
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() string {
		tr := New(128)
		for i := 0; i < 20; i++ {
			tr.Begin(float64(i)*1e-6, "c", "s", uint64(i))
			tr.End(float64(i)*1e-6+5e-7, "c", "s", uint64(i))
			tr.Counter(float64(i)*1e-6, "bw", float64(i)*3.7)
		}
		var b strings.Builder
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatal("identical traces serialized differently")
	}
}

func TestNilTracerExportAndBreakdown(t *testing.T) {
	var tr *Tracer
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil || strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil export = %q err=%v", b.String(), err)
	}
	tr.Counter(1, "x", 2)
	if tr.Leaked() != 0 || tr.OpenSpans() != 0 || tr.Events() != nil || tr.Recorded() != 0 {
		t.Fatal("nil tracer leaked state")
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := New(0)
	for i := 0; i < 5000; i++ {
		tr.Emit(float64(i), "c", "n", "")
	}
	if len(tr.Events()) != 4096 {
		t.Fatalf("default capacity = %d events", len(tr.Events()))
	}
}

// TestRecordedCountsOverwritten checks that Recorded is a monotone
// cursor: it counts every event ever recorded, overwritten ones too.
func TestRecordedCountsOverwritten(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		if got := tr.Recorded(); got != uint64(i) {
			t.Fatalf("Recorded before event %d = %d", i, got)
		}
		tr.Emit(float64(i), "c", "n", "")
	}
	if tr.Recorded() != 5 || tr.Dropped() != 3 || len(tr.Events()) != 2 {
		t.Fatalf("recorded %d, dropped %d, kept %d; want 5, 3, 2",
			tr.Recorded(), tr.Dropped(), len(tr.Events()))
	}
}

// TestEventsSinceCursor slices per-run windows out of the ring with a
// Recorded cursor, before and after the ring wraps.
func TestEventsSinceCursor(t *testing.T) {
	tr := New(4)
	tr.Emit(0, "c", "a", "")
	cur := tr.Recorded()
	tr.Emit(1, "c", "b", "")
	tr.Emit(2, "c", "c", "")
	if got := tr.EventsSince(cur); len(got) != 2 || got[0].Name != "b" || got[1].Name != "c" {
		t.Fatalf("EventsSince before wrap = %+v, want [b c]", got)
	}
	if got := tr.EventsSince(tr.Recorded()); got != nil {
		t.Fatalf("EventsSince(Recorded()) = %+v, want nil", got)
	}
	for i := 3; i < 7; i++ {
		tr.Emit(float64(i), "c", string(rune('a'+i)), "")
	}
	// Events 0..2 are overwritten; the cursor at 1 now sees every survivor.
	if got := tr.EventsSince(cur); len(got) != 4 || got[0].Name != "d" {
		t.Fatalf("EventsSince past the ring = %+v, want the 4 survivors from d", got)
	}
	if got := tr.EventsSince(5); len(got) != 2 || got[0].Name != "f" || got[1].Name != "g" {
		t.Fatalf("EventsSince(5) after wrap = %+v, want [f g]", got)
	}
}
