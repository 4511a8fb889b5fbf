package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/trace"
)

// repRecord is what one child process reports to the parent: a single
// repetition on a fresh cluster.
type repRecord struct {
	// Sim holds the simulated system's end-to-end values. They are a
	// function of the seed and the windows alone.
	Sim map[string]float64 `json:"sim"`
	// Host holds the host-side end-to-end measurements.
	Host map[string]float64 `json:"host"`
	// Counters holds the simulated system's per-layer counters.
	Counters map[string]float64 `json:"counters"`
	// Runtime holds the simulator's host-side per-layer costs: events
	// executed, allocations and GC cycles.
	Runtime map[string]float64 `json:"runtime"`
	// Traced holds what only a traced repetition measures: CPU profile
	// shares, tracing costs and critical-path blame.
	Traced    map[string]float64 `json:"traced,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	// Problems lists correctness failures the child detected itself.
	Problems []string `json:"problems,omitempty"`
}

// blameStages are the critical-path stages reported per workload, as
// critpath labels them. A stage absent from a workload reports 0.
var blameStages = []string{
	"net/request", "net/reply", "mt/parse", "mt/compress.engine",
	"mt/replicate.wait", "mt/fetch", "mt/decompress", "mt/ack",
}

// shareLayers are the layers whose CPU-profile share is reported; the
// profile's remaining repo packages fold into "other".
var shareLayers = []string{
	"sim", "lz4", "core", "device", "rdma", "netsim", "pcie", "mem", "host",
	"middletier", "storage", "blockstore", "corpus", "cluster", "trace",
	"critpath", "bench",
}

// runChild runs one repetition in this process and writes its record
// as JSON to out. entered is when the process's main began.
func runChild(args []string, entered time.Time, out io.Writer) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 42, "workload seed")
	traced := fs.Bool("traced", false, "trace every request and profile the run")
	ring := fs.Int("ring", 1<<16, "trace ring capacity in events")
	virtual := fs.Float64("virtual", 0, "override the virtual windows with this many seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	w = w.withVirtual(*virtual)

	cfg := w.config(*seed)
	var tr *trace.Tracer
	if *traced {
		tr = trace.New(*ring)
		cfg.Trace = tr
	}
	c := cluster.New(cfg)
	setup := time.Since(entered).Seconds()

	// The calibration loop brackets the run (the parent rescales host
	// times by it). The profile covers cluster.Run and, after it, the
	// critical-path analysis; nothing else.
	cal0 := calibrate()
	var prof bytes.Buffer
	if *traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res := c.Run(w.traffic)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	reqs := math.Max(float64(res.Requests), 1)

	rec := repRecord{
		Host: map[string]float64{
			"wall_s":      wall,
			"cpu_s":       cpu,
			"setup_s":     setup,
			"peak_rss_mb": peakRSSMiB(),
		},
		Runtime: map[string]float64{
			"sim.events":                  float64(c.Env.Events()),
			"runtime.gc_cycles":           float64(ms1.NumGC - ms0.NumGC),
			"runtime.allocs_per_req":      float64(ms1.Mallocs-ms0.Mallocs) / reqs,
			"runtime.alloc_bytes_per_req": float64(ms1.TotalAlloc-ms0.TotalAlloc) / reqs,
		},
		Attempted: res.Requests,
		Failed:    res.Errors + res.VerifyMismatches,
	}
	if *traced {
		a0 := time.Now()
		events := tr.Events()
		a := critpath.Analyze(events)
		analyze := time.Since(a0).Seconds()
		profCPU := cpuSeconds() - cpu0
		pprof.StopCPUProfile()
		shares, err := profileShares(prof.Bytes())
		if err != nil {
			return err
		}
		rec.Traced = blame(a)
		for k, v := range shares {
			rec.Traced[k] = v
		}
		rec.Traced["critpath.analyze_s"] = analyze
		rec.Traced["critpath.paths"] = float64(len(a.Paths))
		rec.Traced["trace.events"] = float64(len(events))
		rec.Traced["lz4.cpu_us_per_req"] = shares["lz4.cpu_share"] * profCPU / reqs * 1e6
		if tr.Dropped() != 0 || tr.Leaked() != 0 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("trace dropped %d and leaked %d events (ring %d)",
				tr.Dropped(), tr.Leaked(), *ring))
		}
	}
	rec.Host["cal_s"] = (cal0 + calibrate()) / 2

	if res.Requests == 0 {
		rec.Problems = append(rec.Problems, "no request completed in the measured window")
	}
	if res.Errors > 0 || res.VerifyMismatches > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d errors and %d read-verify mismatches",
			res.Errors, res.VerifyMismatches))
	}
	if w.functional {
		if err := c.CheckAckedWrites(); err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		}
	}
	lat := metrics.NewLatencyHistogram()
	for _, cl := range c.Clients {
		lat.Merge(cl.Lat)
	}
	rec.Sim = map[string]float64{
		"sim_gbps":   metrics.BytesPerSecToGbps(res.Throughput),
		"sim_p50_us": quantile(lat, 0.50) * 1e6,
		"sim_p99_us": quantile(lat, 0.99) * 1e6,
	}
	rec.Counters = layerCounters(c, w, res)
	// p999 is informational: on the open loop its spread across seeds is
	// too wide for it to gate a change.
	rec.Counters["cluster.p999_us"] = quantile(lat, 0.999) * 1e6
	return json.NewEncoder(out).Encode(rec)
}

// layerCounters reads the per-layer counters every run reports through
// the cluster's public accessors.
func layerCounters(c *cluster.Cluster, w workload, res cluster.Results) map[string]float64 {
	mt := c.MT
	window := w.traffic.Warmup + w.traffic.Measure
	l := map[string]float64{
		"middletier.writes":            float64(mt.WritesDone),
		"middletier.reads":             float64(mt.ReadsDone),
		"middletier.read_repairs":      float64(mt.ReadRepairs),
		"middletier.stale_acks":        float64(mt.StaleAcks),
		"middletier.replicate_retries": float64(mt.ReplicateRetries),
		"cluster.requests":             float64(res.Requests),
		"cluster.verify_mismatches":    float64(res.VerifyMismatches),
		"pcie.h2d_gbps":                metrics.BytesPerSecToGbps(res.TotalPCIeH2D()),
		"pcie.d2h_gbps":                metrics.BytesPerSecToGbps(res.TotalPCIeD2H()),
		"mem.read_gbps":                metrics.BytesPerSecToGbps(res.MemReadRate),
		"mem.write_gbps":               metrics.BytesPerSecToGbps(res.MemWriteRate),
		"lz4.ratio":                    0,
	}
	if mt.BytesStored > 0 {
		// BytesStored counts every replica's copy of the frame.
		l["lz4.ratio"] = mt.BytesIn * float64(mt.Config().Replicas) / mt.BytesStored
	}
	var writes float64
	for _, s := range c.Storage {
		writes += float64(s.Writes)
	}
	l["storage.writes"] = writes

	stacks := mt.TransportStacks()
	for _, s := range c.Storage {
		stacks = append(stacks, s.Stack())
	}
	var retx, resets float64
	for _, st := range stacks {
		s := st.Stats()
		retx += float64(s.Retransmits)
		resets += float64(s.Resets)
	}
	l["rdma.retransmits"], l["rdma.resets"] = retx, resets

	var txBytes float64
	for _, p := range mt.NetPorts() {
		txBytes += p.TxStats().Work
	}
	l["netsim.mt_tx_gbps"] = metrics.BytesPerSecToGbps(txBytes / window)

	var busy, processed float64
	engines := mt.Engines()
	for _, e := range engines {
		busy += e.Utilization().BusyIntegral
		processed += e.Processed()
	}
	l["device.engine_gb"] = processed / 1e9
	l["device.engine_busy_frac"] = 0
	if len(engines) > 0 {
		l["device.engine_busy_frac"] = busy / (window * float64(len(engines)))
	}
	return l
}

// quantile returns the q-quantile of h, interpolated geometrically
// inside the bucket that holds it. The histogram's own Quantile returns
// the bucket midpoint, which moves in 3.9% steps; interpolation makes
// small shifts of the distribution visible.
func quantile(h *metrics.Histogram, q float64) float64 {
	target := q * float64(h.Count())
	var lo float64
	var below uint64
	for _, b := range h.Buckets() {
		if b.Count > below && float64(b.Count) >= target {
			if lo == 0 {
				return h.Min()
			}
			if math.IsInf(b.UpperBound, 1) {
				return h.Max()
			}
			frac := (target - float64(below)) / float64(b.Count-below)
			return lo * math.Pow(b.UpperBound/lo, frac)
		}
		lo, below = b.UpperBound, b.Count
	}
	return h.Max()
}

// blame flattens the critical-path profile into per-stage mean and p99
// shares. Wait and service time of one stage are summed.
func blame(a *critpath.Analysis) map[string]float64 {
	out := make(map[string]float64, 2*len(blameStages))
	for _, st := range blameStages {
		key := "blame." + strings.ReplaceAll(st, "/", ".")
		out[key+".mean_frac"] = 0
		out[key+".p99_frac"] = 0
	}
	for _, sb := range a.Stages {
		key := "blame." + strings.ReplaceAll(sb.Stage, "/", ".")
		if _, ok := out[key+".mean_frac"]; ok {
			out[key+".mean_frac"] += sb.MeanFrac
			out[key+".p99_frac"] += sb.P99Frac
		}
	}
	return out
}

// profileShares folds a CPU profile into "<layer>.cpu_share" values
// plus runtime.sched_share, runtime.gc_share and other.cpu_share.
func profileShares(gz []byte) (map[string]float64, error) {
	counts, err := foldProfile(gz)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	share := func(n int64) float64 { return float64(n) / float64(total) }
	out := map[string]float64{
		"runtime.sched_share": share(counts["runtime.sched"]),
		"runtime.gc_share":    share(counts["runtime.gc"]),
	}
	other := total - counts["runtime.sched"] - counts["runtime.gc"]
	for _, l := range shareLayers {
		out[l+".cpu_share"] = share(counts[l])
		other -= counts[l]
	}
	out["other.cpu_share"] = share(other)
	return out, nil
}

// calibrate times a fixed amount of pure CPU work, one copy per P, and
// returns the seconds until every copy finished.
func calibrate() float64 {
	n := runtime.GOMAXPROCS(0)
	done := make(chan uint64, n)
	t := time.Now()
	for i := 0; i < n; i++ {
		go func(x uint64) {
			var table [1 << 13]uint64
			for j := 0; j < 8_000_000; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				table[x>>51] += x
			}
			done <- x + table[7]
		}(uint64(i))
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return time.Since(t).Seconds()
}

// rusage returns this process's resource usage. getrusage on the
// calling process fails only for an invalid argument, a bug.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuSeconds returns this process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) * 1e-9
}

// peakRSSMiB returns this process's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
