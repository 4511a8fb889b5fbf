// Package cliflags holds the flag set shared by the smartds-bench and
// smartds-sim commands, so the observability surface — tracing and its
// sampling rate, critpath blame, SLO specs, the run report and the
// series file — is declared once and behaves identically in both
// binaries.
package cliflags

import (
	"flag"
	"io"

	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// CritpathExample is a smartds-sim invocation whose run report carries
// critpath sections. A report gets them only when the run has a tracer,
// and NewTracer builds one only for -trace, -critpath-folded or
// -breakdown, so sampling alone (-trace-sample) is not enough.
// smartds-report prints it when a report has no blame to show.
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

	ReportFile string
	SeriesJSON string
}

// Register declares the shared flags on fs and returns the value
// struct they populate.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.Uint64Var(&c.Seed, "seed", 42, "root random seed")
	fs.StringVar(&c.TraceFile, "trace", "", "write a Chrome trace-event JSON file (view in Perfetto / chrome://tracing)")
	fs.Float64Var(&c.TraceSample, "trace-sample", 1, "head-sampling rate for trace spans in [0,1]; errors and p999 outliers are kept regardless")
	fs.StringVar(&c.FoldedFile, "critpath-folded", "", "write per-request critical-path blame as folded stacks (flamegraph.pl / speedscope input) to this file; implies tracing")
	fs.BoolVar(&c.Breakdown, "breakdown", false, "print per-stage latency attribution tables (critpath blame; turns on the telemetry registry)")
	fs.StringVar(&c.FaultSpec, "faults", "", "fault campaign spec (kind:target@start+duration[:param];... — see internal/faults)")
	fs.StringVar(&c.Replication, "replication", "primary", "replication protocol: primary | chain | quorum")
	fs.StringVar(&c.SLOSpec, "slo", "", "SLO specs evaluated by a burn-rate engine (kind:value[@opt=val,...];... — see internal/slo)")
	fs.StringVar(&c.ReportFile, "report", "", "write the machine-readable run report (JSON) to this file")
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
// -trace, -critpath-folded or -breakdown wants one, otherwise a tracer
// with -trace-sample head sampling applied (seeded by -seed so the
// kept-span set is deterministic). -breakdown needs it because its
// blame tables are the critical paths of the traced requests.
func (c *Common) NewTracer() *trace.Tracer {
	if c.TraceFile == "" && c.FoldedFile == "" && !c.Breakdown {
		return nil
	}
	tr := trace.New(1 << 18)
	if c.TraceSample < 1 {
		tr.SetSampling(c.TraceSample, c.Seed)
	}
	return tr
}

// NewRegistry builds the telemetry registry implied by the flags (nil
// when neither -report, -series-json, -breakdown nor -slo was
// requested). -breakdown reads each run's blame profile, and the
// printed SLO alert table each run's fired alerts, from the registry's
// run records.
func (c *Common) NewRegistry() *telemetry.Registry {
	if c.ReportFile == "" && c.SeriesJSON == "" && !c.Breakdown && c.SLOSpec == "" {
		return nil
	}
	return telemetry.NewRegistry()
}

// WriteSeries writes the -series-json file when the flag asks for one
// (the report is written by the caller, which owns its header fields).
// writeFile must create the file and stream fn into it.
func (c *Common) WriteSeries(reg *telemetry.Registry,
	writeFile func(path string, fn func(io.Writer) error) error) error {
	if reg == nil || c.SeriesJSON == "" {
		return nil
	}
	return writeFile(c.SeriesJSON, reg.WriteSeriesJSON)
}
