package critpath_test

import (
	"testing"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/trace"
)

// BenchmarkCritpathAnalyze measures critical-path extraction over a
// recorded SmartDS trace (modeled payloads, every request traced, 30%
// reads) and reports the host cost per request analysed.
func BenchmarkCritpathAnalyze(b *testing.B) {
	tr := trace.New(1 << 18)
	cfg := cluster.DefaultConfig(middletier.SmartDS)
	cfg.Functional = false
	cfg.Trace = tr
	cluster.New(cfg).Run(cluster.Workload{Window: 16, Warmup: 0.5e-3, Measure: 2e-3, ReadFraction: 0.3})
	if tr.Dropped() != 0 {
		b.Fatalf("trace ring dropped %d events", tr.Dropped())
	}
	events := tr.Events()
	paths := len(critpath.Analyze(events).Paths)
	if paths == 0 {
		b.Fatal("no critical paths in the recorded trace")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		critpath.Analyze(events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*paths), "ns/request")
}
