// Package trace records simulation events into a bounded ring for
// debugging and critical-path analysis. A nil *Tracer is valid and
// records nothing, so call sites need no guards.
//
// Three record kinds exist:
//
//   - instant events (Emit): a point occurrence on a component track;
//   - spans (Begin/End): a named interval correlated by (component,
//     name, id); request-scoped spans form the DAG internal/critpath
//     tiles into per-stage latency blame;
//   - counter samples (Counter): a periodic reading of a bandwidth or
//     occupancy value, rendered as a counter track.
//
// All timestamps are virtual seconds, so traces from the same seed are
// byte-identical across runs. WriteChromeTrace exports the ring as
// Chrome trace-event JSON viewable in Perfetto or chrome://tracing,
// with the virtual microsecond as the timebase.
package trace

import (
	"fmt"
	"io"
	"strconv"
)

// Kind classifies a span for critical-path blame: service time (the
// component was doing work), wait time (the request was parked on a
// queue, a straggler ack, or a retransmit), or the request root (the
// client-observed end-to-end interval every other span tiles).
type Kind uint8

const (
	KindService Kind = iota
	KindWait
	KindRoot
)

// String names the kind for reports and folded stacks.
func (k Kind) String() string {
	switch k {
	case KindWait:
		return "wait"
	case KindRoot:
		return "root"
	default:
		return "service"
	}
}

// Event is one recorded occurrence in virtual time. Dur > 0 marks a
// completed span starting at At; Counter marks a counter sample whose
// reading is Value.
//
// Req, PComp/PName and Kind carry the request DAG: spans with the same
// non-zero Req belong to one request, PComp/PName name the parent span
// label within that request ("" means the span hangs directly off the
// request root), and Kind splits wait from service time. Parent edges
// are stored as two static-string fields — never concatenated — so
// recording a span stays allocation-free.
type Event struct {
	At        float64 // virtual seconds (span: start time)
	Component string  // e.g. "client0", "mt", "ss2"
	Name      string  // e.g. "issue", "compress"
	Detail    string
	Dur       float64 // span duration in virtual seconds (0 = instant)
	ID        uint64  // span correlation id
	Req       uint64  // request DAG id (0 = not request-scoped)
	PComp     string  // parent span component ("" = child of the root)
	PName     string  // parent span name
	Kind      Kind    // wait/service/root classification
	Counter   bool    // counter sample
	Value     float64 // counter reading
}

// Tracer is a bounded ring of events.
// The open-span table is bounded too: a Begin with no matching End is
// evicted once maxOpen spans are outstanding and counted in Leaked.
type Tracer struct {
	cap     int
	events  []Event
	next    int
	wrapped bool
	dropped uint64

	open    map[spanKey]openSpan
	maxOpen int
	leaked  uint64

	// Head sampling (see sampling.go). sampleSome is false until
	// SetSampling configures a rate below 1, keeping the default path
	// — sample everything — a single branch.
	sampleRate float64
	sampleSeed uint64
	sampleSome bool
	keptTail   uint64
}

type spanKey struct {
	component, name string
	id              uint64
}

// openSpan is the per-open-span state stashed at Begin time and pulled
// into the recorded Event at End time.
type openSpan struct {
	at    float64
	req   uint64
	pcomp string
	pname string
	kind  Kind
}

// defaultMaxOpen bounds the open-span table; the deepest legitimate
// nesting in the simulator is a few spans per in-flight request, so
// crossing this means Begin/End pairing is broken somewhere.
const defaultMaxOpen = 1 << 16

// New creates a tracer holding up to capacity events (older events are
// overwritten once full).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{
		cap:     capacity,
		events:  make([]Event, 0, capacity),
		open:    make(map[spanKey]openSpan),
		maxOpen: defaultMaxOpen,
	}
}

// record appends one event to the ring.
func (t *Tracer) record(ev Event) {
	if len(t.events) < t.cap {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.next] = ev
	t.next = (t.next + 1) % t.cap
	t.wrapped = true
	t.dropped++
}

// Emit records one instant event. Nil tracers drop silently.
func (t *Tracer) Emit(at float64, component, name, detail string) {
	if t == nil {
		return
	}
	t.record(Event{At: at, Component: component, Name: name, Detail: detail})
}

// Counter records one counter sample on the given track.
func (t *Tracer) Counter(at float64, track string, value float64) {
	if t == nil {
		return
	}
	t.record(Event{At: at, Component: track, Name: track, Counter: true, Value: value})
}

// Begin opens a span identified by (component, name, id). If the open
// table is full, the stalest open span is evicted and counted leaked.
func (t *Tracer) Begin(at float64, component, name string, id uint64) {
	t.BeginUnder(at, component, name, id, 0, "", "", KindService)
}

// BeginReq opens a request-scoped span: req groups it into the
// request's DAG as a direct child of the request root. kind splits
// wait from service time (KindRoot marks the root span itself).
func (t *Tracer) BeginReq(at float64, component, name string, id, req uint64, kind Kind) {
	t.BeginUnder(at, component, name, id, req, "", "", kind)
}

// BeginUnder opens a request-scoped span under an explicit parent span
// label (pcomp, pname) within the same request DAG. Pass static
// strings for the parent edge — they are stored verbatim, never
// concatenated, so the call stays allocation-free.
func (t *Tracer) BeginUnder(at float64, component, name string, id, req uint64, pcomp, pname string, kind Kind) {
	if t == nil {
		return
	}
	key := spanKey{component, name, id}
	if _, dup := t.open[key]; dup {
		// Re-Begin of an open span: the earlier one can never match an
		// End anymore (End would pair with the newest start).
		t.leaked++
	} else if len(t.open) >= t.maxOpen {
		t.evictStalest()
	}
	t.open[key] = openSpan{at: at, req: req, pcomp: pcomp, pname: pname, kind: kind}
}

// evictStalest drops the oldest open span and counts it leaked. Ties
// on the start time break on the span key, not on map iteration order,
// so the evicted span (and the resulting leak accounting and later
// end-unmatched events) is the same in every replay of a seed.
func (t *Tracer) evictStalest() {
	var oldest spanKey
	oldestAt := -1.0
	first := true
	for k, os := range t.open {
		if first || os.at < oldestAt || (os.at == oldestAt && keyLess(k, oldest)) { //detcheck:floateq exact tie on recorded timestamps
			oldest, oldestAt, first = k, os.at, false //detcheck:ordered winner is total-ordered by (at, key)
		}
	}
	if !first {
		delete(t.open, oldest)
		t.leaked++
	}
}

// keyLess is the total order on span keys used to break eviction ties.
func keyLess(a, b spanKey) bool {
	if a.component != b.component {
		return a.component < b.component
	}
	if a.name != b.name {
		return a.name < b.name
	}
	return a.id < b.id
}

// End closes a span and records it in the ring.
func (t *Tracer) End(at float64, component, name string, id uint64) {
	if t == nil {
		return
	}
	key := spanKey{component, name, id}
	os, ok := t.open[key]
	if !ok {
		t.record(Event{At: at, Component: component, Name: name + ":end-unmatched",
			Detail: fmt.Sprintf("id=%d", id)})
		return
	}
	delete(t.open, key)
	t.record(Event{At: os.at, Component: component, Name: name, Dur: at - os.at, ID: id,
		Req: os.req, PComp: os.pcomp, PName: os.pname, Kind: os.kind})
}

// Span records an already-completed span directly, bypassing the open
// table: the caller knows both endpoints (straggler waits, wire/queue
// splits, tail keeps). It records exactly what a Begin/End pair would.
func (t *Tracer) Span(start, end float64, component, name string, id, req uint64, pcomp, pname string, kind Kind, detail string) {
	if t == nil {
		return
	}
	t.record(Event{At: start, Component: component, Name: name, Detail: detail,
		Dur: end - start, ID: id, Req: req, PComp: pcomp, PName: pname, Kind: kind})
}

// OpenSpans reports spans begun but not yet ended.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// Leaked reports spans that were opened but could never complete:
// evicted from a full open table or re-begun while open.
func (t *Tracer) Leaked() uint64 {
	if t == nil {
		return 0
	}
	return t.leaked
}

// Events returns the recorded events in ring order (chronological by
// record time; a span is recorded when it ends but stamped with its
// start time).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		return append([]Event(nil), t.events...)
	}
	out := make([]Event, 0, t.cap)
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Dropped reports how many events were overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Recorded reports the total number of events ever recorded (including
// ones since overwritten). Use it as a cursor with EventsSince to
// slice per-run windows out of a long-lived ring.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return uint64(len(t.events)) + t.dropped
}

// EventsSince returns the events recorded at or after the given
// cursor (a prior Recorded() reading) that are still in the ring, in
// record order. Events the ring has already overwritten are gone; the
// caller sees only the surviving suffix.
func (t *Tracer) EventsSince(cursor uint64) []Event {
	if t == nil {
		return nil
	}
	all := t.Events()
	oldest := t.dropped // absolute index of the first surviving event
	if cursor <= oldest {
		return all
	}
	skip := cursor - oldest
	if skip >= uint64(len(all)) {
		return nil
	}
	return all[skip:]
}

// WriteChromeTrace exports the ring as Chrome trace-event JSON (the
// "JSON array format"): one track (tid) per component under a single
// process, spans as matched B/E pairs, instants as "i", counters as
// "C". Timestamps are virtual microseconds. Output is deterministic:
// events appear in ring order and tids are assigned in order of first
// appearance.
//
// Request-scoped spans (Req != 0) additionally carry their req id and
// parent label in args and are stitched together with flow events
// ("s" on the request's first recorded span, "t" on the rest, flow id
// = Req), so the viewer nests a request's stages under one arrow chain
// instead of rendering unrelated flat lanes.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	events := t.Events()
	tids := make(map[string]int)
	order := []string{}
	tidOf := func(component string) int {
		id, ok := tids[component]
		if !ok {
			id = len(tids) + 1
			tids[component] = id
			order = append(order, component)
		}
		return id
	}
	for _, ev := range events {
		tidOf(ev.Component)
	}

	bw := newErrWriter(w)
	bw.writeString("[\n")
	first := true
	emit := func(s string) {
		if !first {
			bw.writeString(",\n")
		}
		first = false
		bw.writeString(s)
	}
	// Thread-name metadata so Perfetto labels each component track.
	for _, comp := range order {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
			tids[comp], quoteJSON(comp)))
	}
	flowSeen := make(map[uint64]bool)
	for _, ev := range events {
		ts := usec(ev.At)
		tid := tids[ev.Component]
		switch {
		case ev.Counter:
			emit(fmt.Sprintf(`{"name":%s,"ph":"C","pid":1,"tid":%d,"ts":%s,"args":{"value":%s}}`,
				quoteJSON(ev.Name), tid, ts, jsonFloat(ev.Value)))
		case ev.Dur > 0:
			args := fmt.Sprintf(`{"id":%d}`, ev.ID)
			if ev.Req != 0 {
				parent := "root"
				if ev.PComp != "" || ev.PName != "" {
					parent = ev.PComp + "/" + ev.PName
				}
				args = fmt.Sprintf(`{"id":%d,"req":%d,"parent":%s,"kind":%s}`,
					ev.ID, ev.Req, quoteJSON(parent), quoteJSON(ev.Kind.String()))
			}
			emit(fmt.Sprintf(`{"name":%s,"ph":"B","pid":1,"tid":%d,"ts":%s,"args":%s}`,
				quoteJSON(ev.Name), tid, ts, args))
			if ev.Req != 0 {
				// Flow arrows stitch a request's spans across tracks.
				ph := "t"
				if !flowSeen[ev.Req] {
					ph, flowSeen[ev.Req] = "s", true
				}
				emit(fmt.Sprintf(`{"name":"req","cat":"req","ph":%s,"pid":1,"tid":%d,"ts":%s,"id":%d}`,
					quoteJSON(ph), tid, ts, ev.Req))
			}
			emit(fmt.Sprintf(`{"name":%s,"ph":"E","pid":1,"tid":%d,"ts":%s}`,
				quoteJSON(ev.Name), tid, usec(ev.At+ev.Dur)))
		default:
			args := "{}"
			if ev.Detail != "" {
				args = fmt.Sprintf(`{"detail":%s}`, quoteJSON(ev.Detail))
			}
			emit(fmt.Sprintf(`{"name":%s,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%s,"args":%s}`,
				quoteJSON(ev.Name), tid, ts, args))
		}
	}
	bw.writeString("\n]\n")
	return bw.err
}

// usec renders a virtual-seconds timestamp as microseconds with a
// deterministic shortest decimal representation.
func usec(sec float64) string { return jsonFloat(sec * 1e6) }

// jsonFloat formats a float deterministically for JSON.
func jsonFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// quoteJSON escapes a string for JSON (component/stage names are plain
// ASCII identifiers, so strconv.Quote is sufficient and deterministic).
func quoteJSON(s string) string { return strconv.Quote(s) }

// errWriter folds write errors so export code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) writeString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}
