package experiments

import (
	"fmt"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
)

// Extension experiments: beyond the paper's figures, exercising the
// parts of the system the paper describes but does not evaluate —
// the read path (§2.2.2; production traffic is ~5 writes : 1 read)
// and storage-server fail-over (§2.2.3 maintenance services).

// ExtReads measures each design under the paper's production mix: one
// read per five writes. Reads fetch the stored frame from one replica
// and decompress it (7x cheaper than compression on CPUs; free on the
// engines).
func ExtReads(opt Options) *metrics.Table {
	tbl := metrics.NewTable(
		"Extension: production read/write mix (1 read : 5 writes)",
		"config", "throughput", "avg lat", "p99", "reads served", "writes served")

	type cfg struct {
		label  string
		kind   middletier.Kind
		cores  int
		window int
	}
	cpuCores := 48
	if opt.Quick {
		cpuCores = 16
	}
	configs := []cfg{
		{"CPU-only (peak)", middletier.CPUOnly, cpuCores, 8 * cpuCores},
		{"Acc", middletier.Accel, 2, 192},
		{"BF2", middletier.BF2, 0, 192},
		{"SmartDS-1", middletier.SmartDS, 2, 192},
	}
	for _, fc := range configs {
		c := opt.newCluster(fc.kind, func(cc *cluster.Config) {
			if fc.cores > 0 {
				cc.MT.Workers = fc.cores
			}
		})
		warm, meas := opt.windows()
		res := c.Run(cluster.Workload{
			Window: fc.window, Warmup: warm, Measure: meas,
			ReadFraction: 1.0 / 6.0, // 5:1 writes:reads
		})
		tbl.AddRow(fc.label, gbps(res.Throughput), us(res.Lat.Mean), us(res.Lat.P99),
			c.MT.ReadsDone, c.MT.WritesDone)
	}
	tbl.AddNote("paper §2.2.3: writes outnumber reads ~5x; decompression is ~7x cheaper per core")
	return tbl
}

// ExtFailover kills one storage server mid-run: the middle tier's
// fail-over path must reroute replication with zero client-visible
// errors, and the dead server must stop receiving traffic.
func ExtFailover(opt Options) *metrics.Table {
	tbl := metrics.NewTable(
		"Extension: storage-server fail-over during a write burst",
		"phase", "throughput", "avg lat", "errors", "dead-server writes")

	c := opt.newCluster(middletier.SmartDS, func(cc *cluster.Config) {
		cc.NumStorage = 5 // room to lose one and still place 3 replicas
	})
	warm, meas := opt.windows()

	// Phase 1: all servers healthy.
	before := c.Run(cluster.Workload{Window: 192, Warmup: warm, Measure: meas})
	w0 := c.Storage[0].Writes
	tbl.AddRow("healthy", gbps(before.Throughput), us(before.Lat.Mean), before.Errors, w0)

	// Fail server 0 and keep writing.
	c.MT.SetServerDown(0, true)
	after := c.Run(cluster.Workload{Window: 192, Warmup: warm, Measure: meas})
	tbl.AddRow("server 0 down", gbps(after.Throughput), us(after.Lat.Mean), after.Errors,
		c.Storage[0].Writes-w0)

	// Recover it.
	c.MT.SetServerDown(0, false)
	rec := c.Run(cluster.Workload{Window: 192, Warmup: warm, Measure: meas})
	tbl.AddRow("recovered", gbps(rec.Throughput), us(rec.Lat.Mean), rec.Errors,
		fmt.Sprintf("+%d", c.Storage[0].Writes-w0))

	tbl.AddNote("writes during the outage route around the dead server; zero client errors")
	return tbl
}
