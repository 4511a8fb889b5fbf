package main

import (
	"fmt"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/storage"
)

// workload is one benchmark input: a cluster configuration plus the
// traffic driven against it. Every workload uses 3-way replication and
// 4 KiB blocks (the middle tier's defaults) and the experiments' 8 GB/s
// JBOF disks, so back-end flash never masks middle-tier effects.
//
// Each workload is measured at two scales. The simulated system's
// metrics come from traffic's windows, which hold more than 10,000
// measured requests, so at least ten samples lie beyond the reported
// p999. Host time comes from many repetitions of a short window,
// hostWindow virtual seconds long (a quarter of it warm-up), each about
// a second of host time on a 2-core machine at the default GOMAXPROCS:
// their median is robust to the seconds-long slow spells a shared
// machine has.
type workload struct {
	name       string
	kind       middletier.Kind
	workers    int // middle-tier host cores; 0 keeps the design default
	protocol   middletier.Protocol
	functional bool
	traffic    cluster.Workload
	hostWindow float64
}

// workloads lists the benchmark's inputs in run order. Why each exists
// is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		// The paper's headline point (Fig 7, SmartDS-1/2) with real
		// corpus blocks. Payloads must be functional: a modeled closed
		// loop of writes draws no random numbers, so every seed would
		// give the same run.
		name: "write-smartds", kind: middletier.SmartDS, workers: 2,
		protocol: middletier.ProtoPrimary, functional: true,
		traffic:    cluster.Workload{Window: 192, Warmup: 1e-3, Measure: 7e-3},
		hostWindow: 0.5e-3,
	},
	{
		// CPU-only peak: real corpus blocks, real LZ4, CRC checked at
		// the storage servers. No AAMS or engine layer runs.
		name: "write-cpu-lz4", kind: middletier.CPUOnly, workers: 16,
		protocol: middletier.ProtoPrimary, functional: true,
		traffic:    cluster.Workload{Window: 128, Warmup: 1e-3, Measure: 10e-3},
		hostWindow: 1e-3,
	},
	{
		// One read per five writes (paper §2.2.3) under quorum
		// replication, every read checksum-verified.
		name: "mix-quorum", kind: middletier.SmartDS, workers: 2,
		protocol: middletier.ProtoQuorum, functional: true,
		traffic:    cluster.Workload{Window: 192, Warmup: 1e-3, Measure: 7e-3, ReadFraction: 1.0 / 6},
		hostWindow: 0.5e-3,
	},
	{
		// Independent users at a fixed Poisson rate: 0.9M req/s, about
		// 79% of BF2's closed-loop peak. Latency is timed from each
		// request's scheduled issue instant; a discrete-event generator
		// is never late.
		name: "open-bf2", kind: middletier.BF2,
		protocol:   middletier.ProtoPrimary,
		traffic:    cluster.Workload{Rate: 0.9e6, Warmup: 1e-3, Measure: 24e-3},
		hostWindow: 1.5e-3,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config builds the cluster configuration for one seed. The program
// receives nothing from the benchmark but this seed.
func (w workload) config(seed uint64) cluster.Config {
	cfg := cluster.DefaultConfig(w.kind)
	cfg.Seed = seed
	cfg.Functional = w.functional
	cfg.MT.Protocol = w.protocol
	if w.workers > 0 {
		cfg.MT.Workers = w.workers
	}
	cfg.Disk = storage.DefaultDisk()
	cfg.Disk.BytesPerSec = 8e9
	return cfg
}

// withVirtual replaces the windows by a total of d virtual seconds, a
// quarter of it warm-up.
func (w workload) withVirtual(d float64) workload {
	if d > 0 {
		w.traffic.Warmup, w.traffic.Measure = d/4, 3*d/4
	}
	return w
}
