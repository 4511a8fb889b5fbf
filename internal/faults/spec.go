// Package faults is the deterministic fault-injection subsystem: it
// parses seed-reproducible campaign schedules of (time, target, fault,
// duration) events and replays them against a running cluster in
// virtual time. Same seed + same spec → bit-identical runs, so a
// fail-over bug found in a campaign replays under the debugger.
//
// The spec grammar is a semicolon-separated list of events:
//
//	kind:target@start+duration[:param]
//
// where kind is one of
//
//	crash     — fail-stop a storage server; its store is lost and
//	            rebuilt from surviving replicas on recovery
//	loss      — sustained Bernoulli packet loss (param = drop prob)
//	burstloss — bursty Gilbert-Elliott loss (param = drop prob inside
//	            a burst; bursts start/stop with fixed probabilities)
//	degrade   — scale a port's link rate (param = fraction of the
//	            original rate, e.g. 0.25)
//	engine    — fail compression engines (middle tier falls back to
//	            raw frames or reroutes to a surviving engine)
//	restart   — blackhole the middle tier's ports for the window and
//	            reconnect broken transports afterwards
//
// and target is a storage server ("ss1"), a client ("vm0"), the middle
// tier ("mt", or "mt1" for one port/engine), a directional link
// ("vm0->mt"), or "*" (loss kinds only). start and duration use Go
// duration syntax ("4ms", "1.5ms").
//
// Example campaign:
//
//	loss:vm0->mt@4ms+6ms:0.03;crash:ss1@8ms+6ms;degrade:ss2@16ms+4ms:0.25
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault types.
type Kind int

// The fault kinds of the spec grammar.
const (
	Crash Kind = iota
	Loss
	BurstLoss
	Degrade
	Engine
	Restart
)

var kindNames = [...]string{"crash", "loss", "burstloss", "degrade", "engine", "restart"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

var kindByName = map[string]Kind{
	"crash": Crash, "loss": Loss, "burstloss": BurstLoss,
	"degrade": Degrade, "engine": Engine, "restart": Restart,
}

// Event is one scheduled fault.
type Event struct {
	Kind     Kind
	Target   string
	Start    float64 // seconds of virtual time
	Duration float64
	// Param is the kind-specific knob: drop probability for loss kinds,
	// rate fraction for degrade. Zero elsewhere.
	Param float64
}

// End is the instant the fault clears.
func (e Event) End() float64 { return e.Start + e.Duration }

// String renders the event back in spec grammar.
func (e Event) String() string {
	s := fmt.Sprintf("%s:%s@%v+%v", e.Kind, e.Target,
		time.Duration(e.Start*1e9), time.Duration(e.Duration*1e9))
	if e.Param != 0 { // exact zero means "param unset", never computed
		s += ":" + strconv.FormatFloat(e.Param, 'g', -1, 64)
	}
	return s
}

// Schedule is a parsed campaign, sorted by start time.
type Schedule struct {
	Events []Event
}

// String renders the schedule back in spec grammar.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// FirstStart is the earliest fault instant (0 for an empty schedule).
func (s *Schedule) FirstStart() float64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[0].Start
}

// LastEnd is the latest fault-clear instant.
func (s *Schedule) LastEnd() float64 {
	end := 0.0
	for _, e := range s.Events {
		if e.End() > end {
			end = e.End()
		}
	}
	return end
}

// Parse builds a Schedule from a spec string. Events come back sorted
// by (start, spec order) so injection and reporting are deterministic
// regardless of how the spec was written.
func Parse(spec string) (*Schedule, error) {
	sched := &Schedule{}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		ev, err := parseEvent(item)
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %w", item, err)
		}
		sched.Events = append(sched.Events, ev)
	}
	sort.SliceStable(sched.Events, func(i, j int) bool {
		return sched.Events[i].Start < sched.Events[j].Start
	})
	return sched, nil
}

// MustParse is Parse for known-good literals (tests, default campaigns).
func MustParse(spec string) *Schedule {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

func parseEvent(item string) (Event, error) {
	var ev Event
	colon := strings.Index(item, ":")
	if colon < 0 {
		return ev, fmt.Errorf("missing kind separator, want kind:target@start+duration")
	}
	kind, ok := kindByName[strings.ToLower(item[:colon])]
	if !ok {
		return ev, fmt.Errorf("unknown fault kind %q", item[:colon])
	}
	ev.Kind = kind
	rest := item[colon+1:]

	at := strings.LastIndex(rest, "@")
	if at < 0 {
		return ev, fmt.Errorf("missing @start")
	}
	ev.Target = strings.TrimSpace(rest[:at])
	if ev.Target == "" {
		return ev, fmt.Errorf("empty target")
	}
	timing := rest[at+1:]

	// Optional :param after the duration.
	if c := strings.Index(timing, ":"); c >= 0 {
		p, err := strconv.ParseFloat(strings.TrimSpace(timing[c+1:]), 64)
		if err != nil {
			return ev, fmt.Errorf("bad param: %v", err)
		}
		ev.Param = p
		timing = timing[:c]
	}
	plus := strings.Index(timing, "+")
	if plus < 0 {
		return ev, fmt.Errorf("missing +duration")
	}
	start, err := parseSeconds(timing[:plus])
	if err != nil {
		return ev, fmt.Errorf("bad start: %v", err)
	}
	dur, err := parseSeconds(timing[plus+1:])
	if err != nil {
		return ev, fmt.Errorf("bad duration: %v", err)
	}
	if start < 0 || dur <= 0 {
		return ev, fmt.Errorf("window must have start >= 0 and duration > 0")
	}
	ev.Start, ev.Duration = start, dur

	switch ev.Kind {
	case Loss, BurstLoss:
		if ev.Param == 0 { // exact zero means "param omitted in the spec"
			ev.Param = 0.05
		}
		if ev.Param < 0 || ev.Param > 1 {
			return ev, fmt.Errorf("loss probability %g out of [0,1]", ev.Param)
		}
	case Degrade:
		if ev.Param == 0 { // exact zero means "param omitted in the spec"
			ev.Param = 0.5
		}
		if ev.Param <= 0 || ev.Param > 1 {
			return ev, fmt.Errorf("rate fraction %g out of (0,1]", ev.Param)
		}
	default:
		if ev.Param != 0 { // exact zero means "param omitted in the spec"
			return ev, fmt.Errorf("%s takes no param", ev.Kind)
		}
	}
	if ev.Target == "*" && ev.Kind != Loss && ev.Kind != BurstLoss {
		return ev, fmt.Errorf("wildcard target only valid for loss kinds")
	}
	return ev, nil
}

func parseSeconds(s string) (float64, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}
