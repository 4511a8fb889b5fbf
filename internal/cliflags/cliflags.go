// Package cliflags holds the flag set shared by the smartds-bench and
// smartds-sim commands, so the observability surface — tracing and its
// sampling rate, SLO specs, event-log level, telemetry artifacts and
// label budgets — is declared once and behaves identically in both
// binaries.
package cliflags

import (
	"flag"
	"io"

	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/evlog"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// CritpathExample is a smartds-sim invocation whose run report carries
// critpath sections. A report gets them only when the run has a tracer,
// and NewTracer builds one only for -trace or -critpath-folded, so
// sampling alone (-trace-sample) is not enough. smartds-report prints
// it when a report has no blame to show.
const CritpathExample = "smartds-sim -measure 5ms -trace-sample 0.01 -critpath-folded blame.folded -report report.json"

// Common is the shared flag surface. Register binds it to a FlagSet;
// read the fields after fs.Parse.
type Common struct {
	Seed        uint64
	TraceFile   string
	TraceSample float64
	FoldedFile  string
	Breakdown   bool
	FaultSpec   string
	Replication string
	SLOSpec     string
	LogLevel    string
	LabelBudget int

	ReportFile  string
	MetricsFile string
	SeriesCSV   string
	SeriesJSON  string
}

// Register declares the shared flags on fs and returns the value
// struct they populate.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.Uint64Var(&c.Seed, "seed", 42, "root random seed")
	fs.StringVar(&c.TraceFile, "trace", "", "write a Chrome trace-event JSON file (view in Perfetto / chrome://tracing)")
	fs.Float64Var(&c.TraceSample, "trace-sample", 1, "head-sampling rate for trace spans in [0,1]; errors and p999 outliers are kept regardless")
	fs.StringVar(&c.FoldedFile, "critpath-folded", "", "write per-request critical-path blame as folded stacks (flamegraph.pl / speedscope input) to this file; implies tracing")
	fs.BoolVar(&c.Breakdown, "breakdown", false, "print per-stage latency attribution tables")
	fs.StringVar(&c.FaultSpec, "faults", "", "fault campaign spec (kind:target@start+duration[:param];... — see internal/faults)")
	fs.StringVar(&c.Replication, "replication", "primary", "replication protocol: primary | chain | quorum")
	fs.StringVar(&c.SLOSpec, "slo", "", "SLO specs evaluated by a burn-rate engine (kind:value[@opt=val,...];... — see internal/slo)")
	fs.StringVar(&c.LogLevel, "log-level", "", "emit the structured sim-time event log to stderr at this level (debug|info|warn|error); empty disables")
	fs.IntVar(&c.LabelBudget, "label-budget", 0, "max label sets per metric name per run scope; extras fold into an overflow=\"other\" series (0 = unlimited)")
	fs.StringVar(&c.ReportFile, "report", "", "write the machine-readable run report (JSON) to this file")
	fs.StringVar(&c.MetricsFile, "metrics", "", "write an OpenMetrics snapshot to this file")
	fs.StringVar(&c.SeriesCSV, "series-csv", "", "write sampled time series as CSV to this file")
	fs.StringVar(&c.SeriesJSON, "series-json", "", "write sampled time series as JSON to this file")
	return c
}

// Protocol parses the -replication flag.
func (c *Common) Protocol() (middletier.Protocol, error) {
	return middletier.ParseProtocol(c.Replication)
}

// SLO parses the -slo flag (nil when unset).
func (c *Common) SLO() ([]slo.Spec, error) {
	if c.SLOSpec == "" {
		return nil, nil
	}
	return slo.Parse(c.SLOSpec)
}

// NewFolded builds the folded-stack accumulator implied by
// -critpath-folded (nil when unset).
func (c *Common) NewFolded() *critpath.Folded {
	if c.FoldedFile == "" {
		return nil
	}
	return critpath.NewFolded()
}

// NewTracer builds the tracer implied by the flags: nil when none of
// -trace, -critpath-folded, or a caller-side need (e.g. -breakdown)
// wants one, otherwise
// a tracer with -trace-sample head sampling applied (seeded by -seed so
// the kept-span set is deterministic).
func (c *Common) NewTracer(need bool) *trace.Tracer {
	if c.TraceFile == "" && c.FoldedFile == "" && !need {
		return nil
	}
	tr := trace.New(1 << 18)
	if c.TraceSample < 1 {
		tr.SetSampling(c.TraceSample, c.Seed)
	}
	return tr
}

// TelemetryWanted reports whether any telemetry artifact flag is set.
func (c *Common) TelemetryWanted() bool {
	return c.ReportFile != "" || c.MetricsFile != "" || c.SeriesCSV != "" || c.SeriesJSON != ""
}

// NewRegistry builds the telemetry registry implied by the flags (nil
// when no artifact was requested), with -label-budget applied.
func (c *Common) NewRegistry() *telemetry.Registry {
	if !c.TelemetryWanted() {
		return nil
	}
	reg := telemetry.NewRegistry()
	reg.LabelBudget = c.LabelBudget
	return reg
}

// NewLogger builds the structured event logger implied by -log-level
// (nil when unset), writing to w and stamped by the virtual clock.
func (c *Common) NewLogger(w io.Writer, clock func() float64) *evlog.Logger {
	if c.LogLevel == "" {
		return nil
	}
	return evlog.New(w, evlog.ParseLevel(c.LogLevel), clock)
}

// WriteArtifacts writes the metrics/series artifacts the flags request
// (the report is written by the caller, which owns its header fields).
// writeFile must create the file and stream fn into it.
func (c *Common) WriteArtifacts(reg *telemetry.Registry,
	writeFile func(path string, fn func(io.Writer) error) error) error {
	if reg == nil {
		return nil
	}
	if c.MetricsFile != "" {
		if err := writeFile(c.MetricsFile, reg.WriteOpenMetrics); err != nil {
			return err
		}
	}
	if c.SeriesCSV != "" {
		if err := writeFile(c.SeriesCSV, reg.WriteSeriesCSV); err != nil {
			return err
		}
	}
	if c.SeriesJSON != "" {
		if err := writeFile(c.SeriesJSON, reg.WriteSeriesJSON); err != nil {
			return err
		}
	}
	return nil
}
