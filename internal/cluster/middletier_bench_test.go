package cluster

import (
	"runtime"
	"testing"

	"github.com/disagg/smartds/internal/middletier"
)

// BenchmarkMiddleTierWrite measures the simulator's host cost of one
// middle-tier write per design: a small functional cluster (real corpus
// blocks, real LZ4 where the design compresses in software or through a
// functional engine) serves a closed loop of window 1, and the benchmark
// reports host nanoseconds and heap allocations per write the middle
// tier completed. Each iteration is one short Run on the same cluster,
// so construction cost stays outside the timer.
func BenchmarkMiddleTierWrite(b *testing.B) {
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		b.Run(kind.String(), func(b *testing.B) {
			c := New(smallCfg(kind))
			w := Workload{Window: 1, Measure: 1e-3}
			c.Run(w) // warm pools and placement before measuring
			writes0 := c.MT.WritesDone
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(w)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			writes := c.MT.WritesDone - writes0
			if writes == 0 {
				b.Fatal("no writes completed")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/request")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(writes), "allocs/request")
		})
	}
}
