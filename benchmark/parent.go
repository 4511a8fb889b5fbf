package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// minReps is the fewest untraced repetitions per workload: enough for a
// median and for the repetitions to check each other's determinism.
const minReps = 3

// childTimeout bounds one child process, so a hung simulation cannot
// hold the benchmark past its time limit.
const childTimeout = 150 * time.Second

type options struct {
	seed    uint64  // workload seed
	seconds float64 // host seconds of untraced repetitions per workload
	virtual float64 // when > 0, replaces the workloads' virtual windows
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Name string `json:"name"`
	// Reps holds every untraced repetition's host metrics; the compare
	// mode judges spread from them.
	Reps []map[string]float64 `json:"reps"`
	// EndToEnd holds the medians over Reps and the long window's
	// simulated-system metrics.
	EndToEnd map[string]float64 `json:"end_to_end"`
	// PerLayer holds the layer metrics (traced runs only).
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
}

// runWorkload measures one workload. Repetitions of the short host
// window, one child each, fill the seconds budget and give the host
// metrics; the long window gives the simulated system's metrics and
// counters. When traced, one traced and profiled child of the short
// window gives the CPU shares, tracing costs and blame.
func runWorkload(w workload, o options, traced bool) (*workloadResult, error) {
	hostV, simV := w.hostWindow, 0.0 // 0 keeps the workload's own windows
	if o.virtual > 0 {
		hostV, simV = o.virtual, o.virtual
	}
	args := func(virtual float64) []string {
		return []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-virtual", strconv.FormatFloat(virtual, 'g', -1, 64)}
	}
	wr := &workloadResult{Name: w.name, EndToEnd: map[string]float64{}}
	check := func(what string, rec, ref *repRecord, withEvents bool) {
		wr.Attempted += rec.Attempted
		wr.Failed += rec.Failed
		for _, p := range rec.Problems {
			wr.Problems = append(wr.Problems, what+": "+p)
		}
		if ref != nil {
			if d := ref.simDiff(*rec, withEvents); d != "" {
				wr.Problems = append(wr.Problems, what+" is not deterministic: "+d)
			}
		}
	}

	// The budget goes to repetitions at the inherited GOMAXPROCS; then
	// minReps repetitions run pinned to one P. The simulated system's
	// results depend only on the seed and the windows, so every
	// repetition must agree with the first.
	recs, err := repeat(args(hostV), nil, o.seconds)
	if err != nil {
		return nil, err
	}
	pinned, err := repeat(args(hostV), onePM, 0)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		check(fmt.Sprintf("repetition %d", i+1), &recs[i], &recs[0], true)
		wr.Reps = append(wr.Reps, recs[i].normalized())
	}
	for _, k := range []string{"wall_s", "cpu_s", "peak_rss_mb", "setup_s"} {
		wr.EndToEnd[k] = medianOf(wr.Reps, k)
	}
	pinnedWalls := make([]float64, len(pinned))
	for i := range pinned {
		check(fmt.Sprintf("GOMAXPROCS=1 repetition %d", i+1), &pinned[i], &recs[0], true)
		pinnedWalls[i] = pinned[i].normalized()["wall_s"]
	}

	// The long window runs pinned to one P too, where the simulator is
	// several times faster; the pinned repetitions show that pinning
	// leaves the simulated results unchanged.
	long, err := runChildProcess(args(simV), onePM)
	if err != nil {
		return nil, fmt.Errorf("long window: %w", err)
	}
	check("the long window", &long, nil, false)
	for k, v := range long.Sim {
		wr.EndToEnd[k] = v
	}
	if !traced {
		return wr, nil
	}

	// Size the trace ring to the run: a traced run records fewer trace
	// events than the untraced run executes simulator events.
	events := recs[0].Runtime["sim.events"]
	ring := 1 << bits.Len64(uint64(events))
	tr, err := runChildProcess(append(args(hostV), "-traced", "-ring", strconv.Itoa(ring)), nil)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	check("the traced run", &tr, &recs[0], false)

	wr.PerLayer = map[string]float64{}
	for k, v := range long.Counters {
		wr.PerLayer[k] = v
	}
	for k, v := range tr.Traced {
		wr.PerLayer[k] = v
	}
	runtimes := make([]map[string]float64, len(recs))
	for i, r := range recs {
		runtimes[i] = r.Runtime
	}
	for k := range recs[0].Runtime {
		wr.PerLayer[k] = medianOf(runtimes, k)
	}
	wall := wr.EndToEnd["wall_s"]
	wr.PerLayer["sim.wall_1p_s"] = median(pinnedWalls)
	wr.PerLayer["sim.events_per_s"] = events / wall
	wr.PerLayer["sim.host_ns_per_event"] = wall / events * 1e9
	wr.PerLayer["trace.overhead_frac"] = tr.normalized()["wall_s"]/wall - 1
	return wr, nil
}

// refCal is how long the calibration loop takes at the reference host
// speed, in seconds: about its median on the 2-core machine the bounds
// were set on.
const refCal = 0.016

// normalized returns the repetition's host metrics with every time
// rescaled to the reference speed, by the ratio of refCal to the
// calibration loop's time measured around this repetition's run. A
// shared machine's speed drifts by tens of percent over seconds (a
// neighbour on a sibling hyperthread, a busy core); the calibration,
// run on every P moments before and after, slows with it.
func (r repRecord) normalized() map[string]float64 {
	k := refCal / r.Host["cal_s"]
	return map[string]float64{
		"wall_s":      r.Host["wall_s"] * k,
		"cpu_s":       r.Host["cpu_s"] * k,
		"setup_s":     r.Host["setup_s"] * k,
		"peak_rss_mb": r.Host["peak_rss_mb"],
		"cal_s":       r.Host["cal_s"],
	}
}

// onePM pins a child to one P.
var onePM = []string{"GOMAXPROCS=1"}

// repeat runs repetitions, one child each, until the next would overrun
// the budget in seconds, and at least minReps.
func repeat(args, env []string, budget float64) ([]repRecord, error) {
	start := time.Now()
	var recs []repRecord
	var last time.Duration
	for len(recs) < minReps || time.Since(start)+last <= time.Duration(budget*float64(time.Second)) {
		t := time.Now()
		rec, err := runChildProcess(args, env)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(recs)+1, err)
		}
		last = time.Since(t)
		recs = append(recs, rec)
	}
	return recs, nil
}

// runChildProcess runs one repetition in a child process (this
// executable, re-run with -child) and decodes its record. The child's
// diagnostics pass through to stderr.
func runChildProcess(args, env []string) (repRecord, error) {
	var rec repRecord
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{"-child"}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return rec, fmt.Errorf("child output: %w", err)
	}
	return rec, nil
}

// simDiff describes how other's simulated results differ from r's, or
// returns "". withEvents also compares the simulator event counts,
// which tracing changes (it samples counters on its own timer).
func (r repRecord) simDiff(other repRecord, withEvents bool) string {
	if r.Attempted != other.Attempted {
		return fmt.Sprintf("requests %d vs %d", r.Attempted, other.Attempted)
	}
	for _, k := range sortedKeys(r.Sim) {
		if r.Sim[k] != other.Sim[k] {
			return fmt.Sprintf("%s %v vs %v", k, r.Sim[k], other.Sim[k])
		}
	}
	if withEvents && r.Runtime["sim.events"] != other.Runtime["sim.events"] {
		return fmt.Sprintf("sim.events %v vs %v", r.Runtime["sim.events"], other.Runtime["sim.events"])
	}
	return ""
}

// medianOf returns the median of key over the maps that hold it.
func medianOf(ms []map[string]float64, key string) float64 {
	vs := make([]float64, 0, len(ms))
	for _, m := range ms {
		if v, ok := m[key]; ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
