package slo

import (
	"math"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/sim"
)

func TestParse(t *testing.T) {
	specs, err := Parse("avail:99.9; p999:250us@short=1ms,long=10ms,burn=4; ttr:10ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	a := specs[0]
	if a.Kind != Availability || math.Abs(a.Objective-0.999) > 1e-12 {
		t.Fatalf("avail spec parsed wrong: kind=%v objective=%v", a.Kind, a.Objective)
	}
	if a.Short != DefaultShort || a.Long != DefaultLong || a.Burn != DefaultBurn {
		t.Fatalf("avail defaults wrong: %+v", a)
	}
	p := specs[1]
	if p.Kind != LatencyP999 || p.Ceiling != 250e-6 || p.Objective != 0.999 {
		t.Fatalf("p999 spec parsed wrong: %+v", p)
	}
	if p.Short != 1e-3 || p.Long != 10e-3 || p.Burn != 4 {
		t.Fatalf("p999 options parsed wrong: %+v", p)
	}
	r := specs[2]
	if r.Kind != TTRCeiling || r.Ceiling != 10e-3 {
		t.Fatalf("ttr spec parsed wrong: %+v", r)
	}
	if r.Name != "ttr:10ms" {
		t.Fatalf("spec name %q, want the item as written", r.Name)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus:1",            // unknown kind
		"avail:200",          // percent out of range
		"avail",              // missing separator
		"p999:-3us",          // non-positive ceiling
		"p999:1ms@short=5ms", // short >= long
		"avail:99@zoom=3",    // unknown option
		"avail:99@burn=0",    // non-positive burn
		"ttr:banana",         // unparseable duration
		"avail:99@short=abc", // unparseable window
		"avail:99@short",     // option without value
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}

// driveEngine runs a synthetic completion stream: errFrom..errTo is an
// error window inside a 20 ms run with one completion every 20 µs.
func driveEngine(spec string, errFrom, errTo float64) []Alert {
	env := sim.NewEnv()
	eng := NewEngine(env, MustParse(spec))
	const stop = 20e-3
	eng.Run(stop)
	var tick func()
	tick = func() {
		now := env.Now()
		bad := now >= errFrom && now < errTo
		eng.Observe(now, 50e-6, bad)
		if now+20e-6 <= stop {
			env.After(20e-6, tick)
		}
	}
	env.After(20e-6, tick)
	env.Run(stop + 1e-3)
	return eng.Alerts()
}

// TestBurnRateFires pins the multi-window rule: a sustained 100% error
// window trips both windows; alerts carry the spec name and fire once
// per episode (rising edge).
func TestBurnRateFires(t *testing.T) {
	alerts := driveEngine("avail:99.9", 5e-3, 12e-3)
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts, want 1 rising-edge alert: %+v", len(alerts), alerts)
	}
	al := alerts[0]
	if al.SLO != "avail:99.9" || al.Kind != "avail" || al.Severity != "page" {
		t.Fatalf("alert identity wrong: %+v", al)
	}
	// The long window (5 ms) needs burn*budget*window of errors; with
	// 100% errors it trips within ~50 µs of accumulating 1% bad over
	// 5 ms — well before the error window closes.
	if al.At <= 5e-3 || al.At >= 12e-3 {
		t.Fatalf("alert at %v, want inside the error window", al.At)
	}
	if al.BurnShort < 10 || al.BurnLong < 10 {
		t.Fatalf("burn rates %v/%v below threshold", al.BurnShort, al.BurnLong)
	}
	if !strings.Contains(al.Detail, "windows") {
		t.Fatalf("detail %q missing window description", al.Detail)
	}
}

// TestBurnRateQuiet pins that a healthy stream fires nothing.
func TestBurnRateQuiet(t *testing.T) {
	if alerts := driveEngine("avail:99.9;p999:1ms", 0, 0); len(alerts) != 0 {
		t.Fatalf("healthy run fired %+v", alerts)
	}
}

// TestP999CeilingFires pins latency-SLO classification: slow-but-OK
// completions burn p999 budget.
func TestP999CeilingFires(t *testing.T) {
	env := sim.NewEnv()
	eng := NewEngine(env, MustParse("p999:100us"))
	const stop = 20e-3
	eng.Run(stop)
	var tick func()
	tick = func() {
		now := env.Now()
		lat := 50e-6
		if now >= 5e-3 && now < 12e-3 {
			lat = 400e-6 // over the ceiling, but not an error
		}
		eng.Observe(now, lat, false)
		if now+20e-6 <= stop {
			env.After(20e-6, tick)
		}
	}
	env.After(20e-6, tick)
	env.Run(stop + 1e-3)
	alerts := eng.Alerts()
	if len(alerts) != 1 || alerts[0].Kind != "p999" {
		t.Fatalf("got %+v, want one p999 alert", alerts)
	}
}

// TestTTRAlerts pins the recovery-ceiling rule: over-ceiling and
// never-recovered fire, in-budget recoveries don't.
func TestTTRAlerts(t *testing.T) {
	env := sim.NewEnv()
	eng := NewEngine(env, MustParse("ttr:10ms"))
	eng.ObserveTTR(30e-3, "crash", "ss1", 4e-3)  // within budget
	eng.ObserveTTR(30e-3, "crash", "ss2", 25e-3) // over ceiling
	eng.ObserveTTR(30e-3, "restart", "mt", -1)   // never recovered
	alerts := eng.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("got %d alerts, want 2: %+v", len(alerts), alerts)
	}
	if alerts[0].BurnShort != 2.5 {
		t.Fatalf("ttr burn = %v, want 2.5", alerts[0].BurnShort)
	}
	if !strings.Contains(alerts[1].Detail, "never recovered") {
		t.Fatalf("unrecovered detail %q", alerts[1].Detail)
	}
}

// TestEngineDeterminism pins that two same-stream engines produce
// byte-identical alert lists (the -count=1 golden CI step relies on
// this at the cluster level).
func TestEngineDeterminism(t *testing.T) {
	a := driveEngine("avail:99.5;p999:200us", 4e-3, 9e-3)
	b := driveEngine("avail:99.5;p999:200us", 4e-3, 9e-3)
	if len(a) != len(b) {
		t.Fatalf("alert counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("alert %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestNilEngine pins nil-safety on the hot path hooks.
func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Observe(0, 1e-6, false)
	e.ObserveTTR(0, "crash", "ss0", 1)
	e.Run(1)
	if e.Alerts() != nil {
		t.Fatal("nil engine returned alerts")
	}
}
