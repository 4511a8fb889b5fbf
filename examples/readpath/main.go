// Readpath: write blocks through a SmartDS middle tier, read them
// back, and verify every byte survives the compress -> replicate ->
// fetch -> decompress round trip.
//
//	go run ./examples/readpath
package main

import (
	"fmt"
	"os"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
)

func main() {
	cfg := cluster.DefaultConfig(middletier.SmartDS)
	c := cluster.New(cfg)
	// Storage servers verify frame CRCs on ingest too.
	for _, srv := range c.Storage {
		srv.Verify = true
	}

	res := c.Run(cluster.Workload{
		Window:       64,
		Warmup:       5e-3,
		Measure:      25e-3,
		ReadFraction: 0.4, // a 60/40 write/read mix
	})

	fmt.Println("SmartDS-1 read/write mix (reads verified against written data)")
	fmt.Printf("  throughput: %s (%.0f req/s)\n", metrics.FormatGbps(res.Throughput), res.ReqPerSec)
	fmt.Printf("  latency:    avg %s  p99 %s\n",
		metrics.FormatDuration(res.Lat.Mean), metrics.FormatDuration(res.Lat.P99))
	fmt.Printf("  served:     %d writes, %d reads\n", c.MT.WritesDone, c.MT.ReadsDone)
	fmt.Printf("  errors: %d (%d in the whole run), verification mismatches: %d\n",
		res.Errors, res.RunErrors, res.VerifyMismatches)

	if res.RunErrors > 0 || res.VerifyMismatches > 0 {
		fmt.Println("DATA INTEGRITY FAILURE")
		os.Exit(1)
	}
	fmt.Println("  every read returned exactly the bytes that were written ✓")
}
