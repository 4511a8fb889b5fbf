// Package smartds's root benchmarks regenerate every table and figure
// of the paper's evaluation (testing.B harness over the experiment
// runners) plus the ablation studies DESIGN.md calls out. Each
// benchmark runs the experiment in virtual time and reports the
// headline numbers as custom metrics; `go run ./cmd/smartds-bench`
// prints the full tables.
//
// Benchmarks default to quick mode (modeled payloads, short windows).
// Set SMARTDS_BENCH_FULL=1 for full-fidelity runs with real corpus
// data.
package smartds

import (
	"fmt"
	"os"
	"testing"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/corpus"
	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/experiments"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: os.Getenv("SMARTDS_BENCH_FULL") == "", Seed: 42}
}

// logTables attaches the regenerated tables to the benchmark output.
func logTables(b *testing.B, tables []*metrics.Table) {
	b.Helper()
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
}

// BenchmarkFig4MemoryPressure regenerates Figure 4: RDMA forwarding
// throughput under Intel-MLC memory pressure.
func BenchmarkFig4MemoryPressure(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Fig4(opt)
		if i == 0 {
			logTables(b, []*metrics.Table{tbl})
		}
	}
}

// BenchmarkTable1PCIeLatency regenerates Table 1: DMA latency on an
// idle versus saturated PCIe 3.0 x16 link.
func BenchmarkTable1PCIeLatency(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table1(opt)
		if i == 0 {
			logTables(b, []*metrics.Table{tbl})
		}
	}
}

// BenchmarkTable3FPGAResources regenerates Table 3: FPGA resource
// consumption of Acc and SmartDS-1/2/4/6.
func BenchmarkTable3FPGAResources(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table3(opt)
		if i == 0 {
			logTables(b, []*metrics.Table{tbl})
		}
	}
}

// BenchmarkFig7WriteThroughput regenerates Figure 7: throughput and
// latency of serving write requests across the four designs and the
// host-core sweep.
func BenchmarkFig7WriteThroughput(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Fig7(opt)
		if i == 0 {
			logTables(b, []*metrics.Table{tbl})
		}
	}
}

// BenchmarkFig8BandwidthUsage regenerates Figure 8: host memory and
// PCIe bandwidth occupation per design, including Acc without DDIO.
func BenchmarkFig8BandwidthUsage(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tables := experiments.Fig8(opt)
		if i == 0 {
			logTables(b, tables)
		}
	}
}

// BenchmarkFig9Interference regenerates Figure 9: write-serving
// performance under co-located MLC memory pressure.
func BenchmarkFig9Interference(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Fig9(opt)
		if i == 0 {
			logTables(b, []*metrics.Table{tbl})
		}
	}
}

// BenchmarkFig10MultiPort regenerates Figure 10: SmartDS throughput,
// latency, and host-side bandwidth versus utilized port count.
func BenchmarkFig10MultiPort(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Fig10(opt)
		if i == 0 {
			logTables(b, []*metrics.Table{tbl})
		}
	}
}

// BenchmarkSec55MultiNIC regenerates the §5.5 estimate: aggregate
// throughput and host budgets with up to 8 SmartDS cards per server.
func BenchmarkSec55MultiNIC(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		tbl := experiments.Sec55(opt)
		if i == 0 {
			logTables(b, []*metrics.Table{tbl})
		}
	}
}

// BenchmarkSimCoreEventsPerSec measures raw simulator throughput on a
// fig7-shaped cluster run — the macro companion to the internal/sim
// micro-benchmarks and the number the run-report sim-perf gate tracks
// (see EXPERIMENTS.md, "Simulator performance"). events/sec counts
// dispatched calendar entries per second of wall time.
func BenchmarkSimCoreEventsPerSec(b *testing.B) {
	var events uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig(middletier.SmartDS)
		cfg.Functional = false
		cfg.Disk.BytesPerSec = 8e9
		c := cluster.New(cfg)
		c.Run(cluster.Workload{Window: 128, Warmup: 2e-3, Measure: 8e-3})
		events += c.Env.Events()
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}

// --- ablation benches (DESIGN.md "design choices called out") --------

// ablationRun executes one SmartDS configuration and reports Gbps.
func ablationRun(b *testing.B, mutate func(*cluster.Config), w cluster.Workload) cluster.Results {
	b.Helper()
	cfg := cluster.DefaultConfig(middletier.SmartDS)
	cfg.Functional = false
	cfg.Disk.BytesPerSec = 8e9
	if mutate != nil {
		mutate(&cfg)
	}
	c := cluster.New(cfg)
	if w.Window == 0 {
		w = cluster.Workload{Window: 128, Warmup: 2e-3, Measure: 8e-3}
	}
	return c.Run(w)
}

// BenchmarkAblationSplitSize sweeps AAMS's h_size: splitting only the
// 64-byte header versus dragging progressively more of each message
// across PCIe into host memory (4096+64 degenerates to the Acc-like
// full-bounce cost).
func BenchmarkAblationSplitSize(b *testing.B) {
	for _, split := range []int{64, 512, 2048, 4160} {
		split := split
		b.Run(metrics.FormatBytes(float64(split)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := ablationRun(b, func(cfg *cluster.Config) {
					cfg.MT.SplitBytes = split
				}, cluster.Workload{})
				b.ReportMetric(metrics.BytesPerSecToGbps(res.Throughput), "Gbps")
				b.ReportMetric(metrics.BytesPerSecToGbps(res.SDSH2D+res.SDSD2H), "pcieGbps")
				b.ReportMetric(res.Lat.Mean*1e6, "avg_us")
			}
		})
	}
}

// BenchmarkAblationEngineRate sweeps the per-port engine throughput:
// starving it below the port rate makes compression the bottleneck
// (the BF2 failure mode); over-provisioning it buys nothing once the
// port's replication egress binds.
func BenchmarkAblationEngineRate(b *testing.B) {
	for _, gbps := range []float64{10, 25, 50, 100, 200} {
		gbps := gbps
		b.Run(metrics.FormatGbps(metrics.GbpsToBytesPerSec(gbps)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := ablationRun(b, func(cfg *cluster.Config) {
					cfg.MT.SDSEngineRate = metrics.GbpsToBytesPerSec(gbps)
				}, cluster.Workload{})
				b.ReportMetric(metrics.BytesPerSecToGbps(res.Throughput), "Gbps")
				b.ReportMetric(res.Lat.Mean*1e6, "avg_us")
			}
		})
	}
}

// BenchmarkAblationBypass sweeps the latency-sensitive fraction: blocks
// that skip compression save engine time but store (and replicate)
// uncompressed bytes.
func BenchmarkAblationBypass(b *testing.B) {
	for _, frac := range []float64{0, 0.25, 0.5, 1.0} {
		frac := frac
		b.Run(fmt.Sprintf("%.0f%%", frac*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := ablationRun(b, nil, cluster.Workload{
					Window: 128, Warmup: 2e-3, Measure: 8e-3, BypassFraction: frac,
				})
				b.ReportMetric(metrics.BytesPerSecToGbps(res.Throughput), "Gbps")
				b.ReportMetric(res.Lat.Mean*1e6, "avg_us")
			}
		})
	}
}

// BenchmarkAblationEffort sweeps the compression effort knob (§2.2.1):
// higher levels buy ratio with matcher work. This measures the real
// codec on the synthetic corpus.
func BenchmarkAblationEffort(b *testing.B) {
	blocks := benchCorpusBlocks()
	for _, level := range []lz4.Level{lz4.LevelFast, lz4.LevelDefault, lz4.LevelHigh, lz4.LevelMax} {
		level := level
		b.Run(levelName(level), func(b *testing.B) {
			enc := lz4.NewEncoder(4096)
			dst := make([]byte, lz4.CompressBound(4096))
			in, out := 0, 0
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				blk := blocks[i%len(blocks)]
				n, err := enc.Compress(dst, blk, level)
				if err != nil {
					b.Fatal(err)
				}
				in += len(blk)
				out += n
			}
			b.ReportMetric(float64(in)/float64(out), "ratio")
		})
	}
}

func levelName(l lz4.Level) string {
	switch l {
	case lz4.LevelFast:
		return "fast"
	case lz4.LevelDefault:
		return "default"
	case lz4.LevelHigh:
		return "high"
	default:
		return "max"
	}
}

func benchCorpusBlocks() [][]byte {
	c := corpus.New(42)
	blocks := make([][]byte, 64)
	for i := range blocks {
		blocks[i] = c.Block(4096)
	}
	return blocks
}

// BenchmarkLZ4EngineThroughput measures the functional codec inside the
// simulated hardware engine wrapper.
func BenchmarkLZ4EngineThroughput(b *testing.B) {
	_ = device.DefaultHBM() // keep the device package linked for the bench
	blocks := benchCorpusBlocks()
	enc := lz4.NewEncoder(4096)
	dst := make([]byte, lz4.CompressBound(4096))
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Compress(dst, blocks[i%len(blocks)], lz4.LevelDefault); err != nil {
			b.Fatal(err)
		}
	}
}
