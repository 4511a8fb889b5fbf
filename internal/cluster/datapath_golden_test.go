package cluster

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// datapathDesigns are the middle-tier configurations the datapath golden
// covers: every Figure 1 design, Acc under both DDIO settings, and
// SmartDS with one and two ports (two ports make engine reroute
// possible).
var datapathDesigns = []struct {
	name  string
	kind  middletier.Kind
	ports int
	ddio  bool
}{
	{"CPU-only", middletier.CPUOnly, 0, true},
	{"Acc-DDIO", middletier.Accel, 0, true},
	{"Acc-noDDIO", middletier.Accel, 0, false},
	{"BF2", middletier.BF2, 0, true},
	{"SmartDS-1", middletier.SmartDS, 1, true},
	{"SmartDS-2", middletier.SmartDS, 2, true},
}

// datapathFaults crashes one storage server (degraded writes, quorum
// read repair of the wiped store), fails every engine (raw-frame
// fallback), then engine 0 alone (SmartDS-2 reroutes to port 1; the
// single-engine designs fall back again).
const datapathFaults = "crash:ss1@0.6ms+0.8ms;engine:mt@0.7ms+0.4ms;engine:mt0@1.3ms+0.4ms"

// datapathCounters are the path counters a cell exercised.
type datapathCounters struct {
	bypass, fallback, reroute, repair, notFound uint64
}

// datapathCell runs one design × protocol × payload-mode cell with full
// tracing and returns the SHA-256 of its run report (critpath blame
// included) followed by its Chrome trace.
func datapathCell(t *testing.T, di int, proto middletier.Protocol, functional bool) (string, datapathCounters) {
	t.Helper()
	d := datapathDesigns[di]
	tr := trace.New(1 << 16)
	reg := telemetry.NewRegistry()
	cfg := smallCfg(d.kind)
	cfg.Seed = 42
	cfg.Functional = functional
	if d.ports > 0 {
		cfg.MT.Ports = d.ports
	}
	cfg.MT.DDIO = d.ddio
	cfg.MT.Protocol = proto
	cfg.MT.ReplicateTimeout = 0.5e-3
	cfg.Trace = tr
	cfg.Telemetry = reg
	cfg.TelemetryExp = "datapath-golden"
	c := New(cfg)
	if _, err := c.ApplyFaults(faults.MustParse(datapathFaults)); err != nil {
		t.Fatal(err)
	}
	res := c.Run(Workload{Window: 8, Warmup: 0.3e-3, Measure: 1.7e-3,
		ReadFraction: 1.0 / 6, BypassFraction: 0.05})
	if res.Requests == 0 || c.MT.ReadsDone == 0 {
		t.Fatalf("cell did no work: %d requests, %d reads", res.Requests, c.MT.ReadsDone)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; grow it", tr.Dropped())
	}
	h := sha256.New()
	if err := telemetry.WriteReport(h, reg.BuildReport("datapath-golden", cfg.Seed, true, nil)); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	cnt := datapathCounters{
		bypass:   c.MT.BypassHits,
		fallback: c.MT.EngineFallbacks,
		reroute:  c.MT.EngineReroutes,
		repair:   c.MT.ReadRepairs,
	}
	for _, srv := range c.Storage {
		cnt.notFound += srv.NotFound
	}
	return fmt.Sprintf("%x", h.Sum(nil)), cnt
}

// TestDatapathGoldenDeterminism pins every middle-tier datapath to a
// checked-in fingerprint: for each design × replication protocol ×
// payload mode, a fault-laden mixed run's report and full trace hash to
// the line recorded in testdata/datapath_golden.txt. A refactor of the
// request pipeline must keep all 36 lines byte-identical. To regenerate
// after a deliberate behavior change, copy the "got" block from the
// failure output into the file. Runs under CI's -run 'Determin' step.
func TestDatapathGoldenDeterminism(t *testing.T) {
	type cell struct {
		name       string
		design     int
		proto      middletier.Protocol
		functional bool
	}
	var cells []cell
	for di, d := range datapathDesigns {
		for _, proto := range middletier.Protocols() {
			for _, functional := range []bool{true, false} {
				mode := "modeled"
				if functional {
					mode = "functional"
				}
				cells = append(cells, cell{d.name + "/" + proto.String() + "/" + mode, di, proto, functional})
			}
		}
	}
	sums := make([]string, len(cells))
	counts := make([]datapathCounters, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, ce := range cells {
			i, ce := i, ce
			t.Run(ce.name, func(t *testing.T) {
				t.Parallel()
				sums[i], counts[i] = datapathCell(t, ce.design, ce.proto, ce.functional)
			})
		}
	})
	if t.Failed() {
		return
	}

	var total datapathCounters
	var got strings.Builder
	for i, ce := range cells {
		fmt.Fprintf(&got, "%s %s\n", ce.name, sums[i])
		total.bypass += counts[i].bypass
		total.fallback += counts[i].fallback
		total.reroute += counts[i].reroute
		total.repair += counts[i].repair
		total.notFound += counts[i].notFound
	}
	for _, c := range []struct {
		what string
		n    uint64
	}{
		{"bypass", total.bypass}, {"engine fallback", total.fallback},
		{"SmartDS engine reroute", total.reroute}, {"read repair", total.repair},
		{"not-found read", total.notFound},
	} {
		if c.n == 0 {
			t.Errorf("no cell exercised %s", c.what)
		}
	}

	want, err := os.ReadFile("testdata/datapath_golden.txt")
	if err != nil {
		t.Fatalf("read golden: %v\ngot:\n%s", err, got.String())
	}
	if string(want) != got.String() {
		t.Fatalf("datapath fingerprints differ from testdata/datapath_golden.txt\ngot:\n%swant:\n%s",
			got.String(), want)
	}
}
