package experiments

import (
	"fmt"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
)

// fig7Config is one point of the §5.2 comparison.
type fig7Config struct {
	kind   middletier.Kind
	cores  int
	label  string
	window int
}

// fig7Sweep lists the paper's core-count sweep per design.
func fig7Sweep(quick bool) []fig7Config {
	var out []fig7Config
	cpuCores := []int{1, 2, 4, 8, 16, 24, 32, 48}
	accCores := []int{1, 2, 4, 8}
	sdsCores := []int{1, 2, 4}
	if quick {
		cpuCores = []int{2, 8, 48}
		accCores = []int{2}
		sdsCores = []int{2}
	}
	for _, n := range cpuCores {
		out = append(out, fig7Config{middletier.CPUOnly, n, fmt.Sprintf("CPU-only/%d", n), 8 * n})
	}
	for _, n := range accCores {
		out = append(out, fig7Config{middletier.Accel, n, fmt.Sprintf("Acc/%d", n), 192})
	}
	out = append(out, fig7Config{middletier.BF2, 0, "BF2", 192})
	for _, n := range sdsCores {
		out = append(out, fig7Config{middletier.SmartDS, n, fmt.Sprintf("SmartDS-1/%d", n), 192})
	}
	return out
}

// runFig7Point executes one configuration at saturating load.
func (o Options) runFig7Point(fc fig7Config) cluster.Results {
	c := o.newCluster(fc.kind, func(cfg *cluster.Config) {
		if fc.cores > 0 {
			cfg.MT.Workers = fc.cores
		}
	})
	return o.runPeak(c, fc.window, nil)
}

// Fig7 reproduces the §5.2 throughput and latency comparison: write
// requests, 4 KB blocks, 3-way replication, sweeping the middle-tier
// host cores per design.
func Fig7(opt Options) *metrics.Table {
	tbl := metrics.NewTable(
		"Figure 7: throughput and latency of serving write requests",
		"config", "throughput", "avg lat", "p99", "p999")
	for _, fc := range fig7Sweep(opt.Quick) {
		res := opt.runFig7Point(fc)
		tbl.AddRow(fc.label, gbps(res.Throughput),
			us(res.Lat.Mean), us(res.Lat.P99), us(res.Lat.P999))
	}
	tbl.AddNote("paper: SmartDS-1 and Acc peak with 2 host cores; CPU-only needs all 48")
	tbl.AddNote("paper: one CPU core compresses ~2.1 Gbps, an SMT pair ~2.7 Gbps")
	return tbl
}
