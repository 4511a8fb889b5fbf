package experiments

import (
	"fmt"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
)

// Sec55 reproduces the §5.5 scale-up estimate: a 4U middle-tier server
// hosting up to 8 SmartDS cards (two 1x4 PCIe switches). Per-card
// throughput and host-side costs are *measured* (SmartDS-6), then
// aggregated and checked against the host's memory and PCIe budgets;
// the final row compares against the measured CPU-only peak.
func Sec55(opt Options) *metrics.Table {
	tbl := metrics.NewTable(
		"Section 5.5: multiple SmartDS cards per middle-tier server",
		"cards", "aggregate throughput", "host mem demand", "PCIe/switch-port", "fits host budget")

	// Measured per-card behaviour (SmartDS-6) and the CPU-only peak.
	perCard := opt.runFig10Point(sec55Ports(opt))
	cpuCores := 48
	if opt.Quick {
		cpuCores = 16
	}
	cpu := opt.newCluster(middletier.CPUOnly, func(cc *cluster.Config) { cc.MT.Workers = cpuCores })
	cpuRes := opt.runPeak(cpu, 8*cpuCores, nil)

	const (
		hostMemBudget    = 1228e9 / 8 // 8 channels theoretical (paper)
		pcieSwitchBudget = 102.4e9 / 8
		cardsPerSwitch   = 4
	)
	cardMem := perCard.MemReadRate + perCard.MemWriteRate
	cardPCIe := perCard.SDSH2D + perCard.SDSD2H

	var best float64
	for cards := 1; cards <= 8; cards++ {
		agg := perCard.Throughput * float64(cards)
		memDemand := cardMem * float64(cards)
		perSwitch := cardPCIe * float64(min(cards, cardsPerSwitch))
		fits := memDemand <= hostMemBudget && perSwitch <= pcieSwitchBudget
		if fits {
			best = agg
		}
		tbl.AddRow(cards, gbps(agg), gbps(memDemand), gbps(perSwitch), fits)
	}
	if cpuRes.Throughput > 0 {
		tbl.AddNote("measured speedup over CPU-only peak: %.1fx (paper: 51.6x with 8 cards)",
			best/cpuRes.Throughput)
	}
	tbl.AddNote(fmt.Sprintf("budgets: host memory %s theoretical, %s per PCIe 3.0x16 switch root",
		gbps(hostMemBudget), gbps(pcieSwitchBudget)))
	return tbl
}

// sec55Ports picks the per-card port count (6 in the paper).
func sec55Ports(opt Options) int {
	if opt.Quick {
		return 2
	}
	return 6
}
