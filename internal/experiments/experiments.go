// Package experiments regenerates every table and figure of the
// paper's evaluation (and motivation) sections. Each runner builds the
// workload the paper describes, executes it in virtual time, and
// returns text tables whose rows mirror the paper's series, annotated
// with the paper's reference values where the paper states them.
//
// Index (see DESIGN.md):
//
//	Fig4   - RDMA throughput under memory pressure        (§3.1.2)
//	Table1 - PCIe DMA latency idle vs loaded              (§3.1.3)
//	Fig7   - write throughput + latency per design        (§5.2)
//	Fig8   - host memory and PCIe bandwidth per design    (§5.2)
//	Table3 - FPGA resource consumption                    (§5.1)
//	Fig9   - performance under MLC interference           (§5.3)
//	Fig10  - SmartDS port scaling                         (§5.4)
//	Sec55  - multiple SmartDS cards per server            (§5.5)
package experiments

import (
	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/storage"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks measurement windows and uses modeled payloads so
	// the full suite runs in seconds (tests, CI). Full runs move real
	// corpus blocks.
	Quick bool
	Seed  uint64
	// Trace, when set, is attached to every cluster an experiment
	// builds; spans and counters from all configurations accumulate in
	// it (export with trace.WriteChromeTrace).
	Trace *trace.Tracer
	// FaultSpec overrides the ext-faults campaign schedule (see
	// internal/faults for the grammar). Empty uses DefaultFaultSpec.
	FaultSpec string
	// Replication selects the middle tier's replication protocol for
	// every cluster an experiment builds (primary fan-out, chain, or
	// quorum). The zero value is primary fan-out, the paper's protocol.
	Replication middletier.Protocol
	// Telemetry, when set, collects every cluster's instruments and run
	// records into the central registry; Run threads the experiment id
	// into the run labels automatically.
	Telemetry *telemetry.Registry
	// SLO declares service-level objectives (see internal/slo for the
	// grammar) evaluated by a burn-rate engine on every cluster run;
	// fired alerts land in the telemetry run records. Empty disables.
	SLO []slo.Spec
	// CritpathFolded, when set (with Trace), accumulates every run's
	// critical-path blame as folded stacks for flamegraph export.
	CritpathFolded *critpath.Folded

	// exp is the currently-executing experiment id (set by Run), used
	// to label telemetry run records.
	exp string
}

// DefaultOptions returns full-fidelity settings.
func DefaultOptions() Options { return Options{Seed: 42} }

// warmup/measure windows per mode.
func (o Options) windows() (warmup, measure float64) {
	if o.Quick {
		return 2e-3, 8e-3
	}
	return 4e-3, 15e-3
}

func (o Options) functional() bool { return !o.Quick }

// expDisk returns the storage-server disk used across experiments: a
// JBOF-class array (8 GB/s) so back-end flash never masks the
// middle-tier effects the paper isolates.
func expDisk() storage.DiskConfig {
	d := storage.DefaultDisk()
	d.BytesPerSec = 8e9
	return d
}

// newCluster builds a cluster for one experiment configuration.
func (o Options) newCluster(kind middletier.Kind, mutate func(*cluster.Config)) *cluster.Cluster {
	cfg := cluster.DefaultConfig(kind)
	cfg.Seed = o.Seed
	cfg.Functional = o.functional()
	cfg.MT.Protocol = o.Replication
	cfg.Disk = expDisk()
	cfg.Trace = o.Trace
	cfg.CritpathFolded = o.CritpathFolded
	cfg.Telemetry = o.Telemetry
	cfg.TelemetryExp = o.exp
	cfg.SLO = o.SLO
	if mutate != nil {
		mutate(&cfg)
	}
	return cluster.New(cfg)
}

// runPeak drives a saturating closed loop sized to the design.
func (o Options) runPeak(c *cluster.Cluster, window int, extra func(*cluster.Workload)) cluster.Results {
	warm, meas := o.windows()
	w := cluster.Workload{Window: window, Warmup: warm, Measure: meas}
	if extra != nil {
		extra(&w)
	}
	return c.Run(w)
}

// gbps formats a byte rate for table cells.
func gbps(bytesPerSec float64) string { return metrics.FormatGbps(bytesPerSec) }

// us formats a latency for table cells.
func us(sec float64) string { return metrics.FormatDuration(sec) }
