// Command benchmark measures the SmartDS simulator end to end and layer
// by layer. It builds clusters through cluster.New, drives them with
// cluster.Run and reads only public counters, so it measures the
// program from outside.
//
// Run every workload and write the results:
//
//	bash benchmark/run.sh -seed 42 -out results.json
//
// Run one workload as a single timed run (the form BENCHMARK.json's
// command takes; -trace 1 prints the per-layer metrics instead of the
// end-to-end ones):
//
//	bash benchmark/run.sh --workload write-smartds --seed 3 --seconds 15 --trace 0
//
// Compare two result files against the bounds in BENCHMARK.json:
//
//	bash benchmark/run.sh -compare before.json after.json
//
// Each repetition runs in a child process (this binary re-executed with
// -child) on a fresh cluster, one child at a time. The host metrics are
// measured at the GOMAXPROCS the children inherit, which the output
// records with the CPU count; only wall_1p_s and the simulated system's
// long window run pinned to one P.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], time.Now(), os.Stdout, os.Stderr))
}

// run is the whole program; it returns the exit code. entered is when
// the process's main began (a child's set-up time starts there).
func run(args []string, entered time.Time, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "-child" {
		if err := runChild(args[1:], entered, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark child:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	name := fs.String("workload", "", "run only this workload and end with a one-line JSON result")
	seed := fs.Uint64("seed", 42, "workload seed (7 is held out for checking claims)")
	seconds := fs.Float64("seconds", -1, "host seconds of repetitions per workload (default: run_seconds from the spec)")
	traceFlag := fs.Int("trace", 0, "with -workload: 1 prints the per-layer metrics of a traced run, 0 the end-to-end ones")
	out := fs.String("out", "", "write the results as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	virtual := fs.Float64("virtual", 0, "replace every workload's virtual windows by this many seconds (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return runCompare(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 0 {
		*seconds = float64(sp.RunSeconds)
	}
	o := options{seed: *seed, seconds: *seconds, virtual: *virtual}
	res := resultsFile{
		Seed: *seed, Seconds: *seconds, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	fmt.Fprintf(stdout, "# seed=%d seconds=%g gomaxprocs=%d nproc=%d %s\n",
		res.Seed, res.Seconds, res.GOMAXPROCS, res.NProc, res.GoVersion)

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []workload{w}
	}
	// A single-workload run prints one metric family; the full run
	// traces every workload and prints both.
	traced := *name == "" || *traceFlag == 1
	correct := true
	for _, w := range selected {
		wr, err := runWorkload(w, o, traced)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		res.Workloads = append(res.Workloads, wr)
		if *name == "" || *traceFlag == 0 {
			err = printMetrics(stdout, wr.Name, wr.EndToEnd, sp.EndToEnd)
		}
		if err == nil && traced {
			err = printMetrics(stdout, wr.Name, wr.PerLayer, sp.PerLayer)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		for _, p := range wr.Problems {
			fmt.Fprintf(stdout, "%s: FAIL %s\n", wr.Name, p)
			correct = false
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *name != "" {
		wr := res.Workloads[0]
		specs, values := sp.EndToEnd, wr.EndToEnd
		if *traceFlag == 1 {
			specs, values = sp.PerLayer, wr.PerLayer
		}
		line := resultLine{Correct: correct, Attempted: wr.Attempted, Failed: wr.Failed,
			Metrics: make(map[string]resultValue, len(specs))}
		for _, m := range specs {
			line.Metrics[m.Name] = resultValue{Value: values[m.Name], Unit: m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !correct {
		return 1
	}
	return 0
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	GoVersion  string            `json:"go"`
	Workloads  []*workloadResult `json:"workloads"`
}

// printMetrics prints one line per declared metric. A declared metric
// the run did not produce is a benchmark bug.
func printMetrics(w io.Writer, workload string, values map[string]float64, specs []metricSpec) error {
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, m.Name)
		}
		fmt.Fprintf(w, "%s: %s = %.6g %s\n", workload, m.Name, v, m.Unit)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	return &r, nil
}
