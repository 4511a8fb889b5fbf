package experiments

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/disagg/smartds/internal/metrics"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

// quickRuns memoizes one quick run per experiment id for the whole test
// binary: every test that asserts on an experiment reads its tables
// from here instead of running it again.
var quickRuns struct {
	sync.Mutex
	tables map[string][]*metrics.Table
}

// quickTables returns experiment id's quick tables, running it on the
// first call.
func quickTables(t *testing.T, id string) []*metrics.Table {
	t.Helper()
	quickRuns.Lock()
	defer quickRuns.Unlock()
	if tables, ok := quickRuns.tables[id]; ok {
		return tables
	}
	tables, err := Run(id, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if quickRuns.tables == nil {
		quickRuns.tables = make(map[string][]*metrics.Table)
	}
	quickRuns.tables[id] = tables
	return tables
}

// quickTable returns the single table of a one-table experiment.
func quickTable(t *testing.T, id string) *metrics.Table {
	t.Helper()
	tables := quickTables(t, id)
	if len(tables) != 1 {
		t.Fatalf("%s produced %d tables, want 1", id, len(tables))
	}
	return tables[0]
}

// rowOf returns the row whose first cell is label.
func rowOf(t *testing.T, tbl *metrics.Table, label string) []string {
	t.Helper()
	for _, row := range tbl.Rows {
		if row[0] == label {
			return row
		}
	}
	t.Fatalf("%q has no row %q:\n%s", tbl.Title, label, tbl.String())
	return nil
}

// number parses a table cell: a bare number, or one followed by a unit
// (Gbps, or the metrics.FormatDuration units, which it scales to
// seconds).
func number(t *testing.T, cell string) float64 {
	t.Helper()
	num, unit, _ := strings.Cut(cell, " ")
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	scale := map[string]float64{"": 1, "Gbps": 1, "s": 1, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
	f, ok := scale[unit]
	if !ok {
		t.Fatalf("cell %q: unknown unit %q", cell, unit)
	}
	return v * f
}

// skipInShort gates the full-load driver tests: each one runs real
// cluster workloads for tens of seconds, and race instrumentation
// multiplies that several-fold. Short mode (which the race CI step
// uses) keeps the fast calibration tests; the concurrency these
// drivers exercise is race-tested directly in internal/cluster,
// internal/middletier, and internal/rdma.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-load driver run; skipped in short mode")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ext-failover", "ext-faults", "ext-faults-protocols", "ext-reads", "fig10", "fig4", "fig7", "fig8", "fig9", "sec55", "table1", "table3"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("experiments registered: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
	if _, err := Run("nope", quickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1MatchesPaperCalibration(t *testing.T) {
	tbl := quickTable(t, "table1")
	idle, loaded := rowOf(t, tbl, "Under Loaded"), rowOf(t, tbl, "Heavily Loaded")
	idleH, idleD := number(t, idle[1]), number(t, idle[2])
	loadH, loadD := number(t, loaded[1]), number(t, loaded[2])
	if math.Abs(idleH-1.4e-6) > 0.2e-6 || math.Abs(idleD-1.4e-6) > 0.2e-6 {
		t.Fatalf("idle latencies %v/%v, want ~1.4us", idleH, idleD)
	}
	if loadH < 8e-6 || loadH > 13e-6 {
		t.Fatalf("loaded H2D %v, want ~11.3us", loadH)
	}
	if loadD < 4.5e-6 || loadD > 8e-6 {
		t.Fatalf("loaded D2H %v, want ~6.6us", loadD)
	}
	if loadH <= loadD {
		t.Fatalf("paper shape: loaded H2D (%v) > loaded D2H (%v)", loadH, loadD)
	}
}

func TestTable3Shape(t *testing.T) {
	tbl := quickTable(t, "table3")
	out := tbl.String()
	for _, want := range []string{"Acc", "SmartDS-6", "941", "112"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestFig4PressureShape(t *testing.T) {
	tbl := quickTable(t, "fig4")
	idle, saturated := rowOf(t, tbl, "none"), rowOf(t, tbl, "0")
	free, loaded := number(t, idle[1]), number(t, saturated[1])
	mlcGBps := number(t, saturated[2])
	if free < 80 {
		t.Fatalf("uncontended RDMA only %.3g Gbps", free)
	}
	frac := loaded / free
	if frac > 0.75 || frac < 0.2 {
		t.Fatalf("pressure drop to %.0f%%, want the paper's collapse toward ~46%%", frac*100)
	}
	if mlcGBps < 50 {
		t.Fatalf("MLC only sustained %.1f GB/s under its own saturation", mlcGBps)
	}
}

func TestFig7HeadlineShapes(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, "fig7")
	gbps := func(label string) float64 { return number(t, rowOf(t, tbl, label)[1]) }
	cpu2, cpu48 := gbps("CPU-only/2"), gbps("CPU-only/48")
	sds, bf2 := gbps("SmartDS-1/2"), gbps("BF2")

	// CPU-only scales with cores but stays compression-bound.
	if cpu48 < 5*cpu2 {
		t.Fatalf("CPU-only scaling broken: %.2f Gbps -> %.2f Gbps", cpu2, cpu48)
	}
	// SmartDS-1 with 2 cores beats CPU-only with 2 cores by a wide margin
	// and at least matches CPU-only peak.
	if sds < 5*cpu2 {
		t.Fatalf("SmartDS-1 (%.2f Gbps) should dwarf 2-core CPU-only (%.2f Gbps)", sds, cpu2)
	}
	// Paper §5.2: SmartDS-1 with 2 cores reaches "the same throughput"
	// CPU-only needs all 48 logical cores for (both are bounded by the
	// port's replication egress / compression capacity).
	if sds < 0.9*cpu48 {
		t.Fatalf("SmartDS-1 (%.2f Gbps) well below CPU-only peak (%.2f Gbps)", sds, cpu48)
	}
	// BF2 is bounded by its ~40 Gbps engine.
	if bf2 > 45 {
		t.Fatalf("BF2 exceeded its engine bound: %.1f Gbps", bf2)
	}
	if bf2 < 15 {
		t.Fatalf("BF2 implausibly slow: %.1f Gbps", bf2)
	}
}

func TestFig10LinearScaling(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, "fig10")
	r1, r2 := rowOf(t, tbl, "SmartDS-1"), rowOf(t, tbl, "SmartDS-2")
	ratio := number(t, r2[1]) / number(t, r1[1])
	if ratio < 1.7 {
		t.Fatalf("port scaling 1->2 gave %.2fx, want ~2x", ratio)
	}
	// Latency stays in the same regime.
	if mean1, mean2 := number(t, r1[2]), number(t, r2[2]); mean2 > 3*mean1 {
		t.Fatalf("multi-port latency exploded: %v vs %v", mean2, mean1)
	}
}

func TestFig9IsolationShape(t *testing.T) {
	skipInShort(t)
	// Under full MLC pressure, CPU-only loses significant throughput;
	// SmartDS barely changes.
	tbl := quickTable(t, "fig9")
	out := tbl.String()
	if !strings.Contains(out, "CPU-only") || !strings.Contains(out, "SmartDS-1") {
		t.Fatalf("fig9 table malformed:\n%s", out)
	}
}

func TestSec55TableShape(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, "sec55")
	out := tbl.String()
	if !strings.Contains(out, "cards") || !strings.Contains(out, "speedup over CPU-only") {
		t.Fatalf("sec55 table malformed:\n%s", out)
	}
}

// TestQuickRunsProduceTables runs every registered experiment in quick
// mode (reusing the runs the shape tests made) and checks that each
// yields non-empty tables.
func TestQuickRunsProduceTables(t *testing.T) {
	skipInShort(t)
	var tables []*metrics.Table
	for _, id := range Names() {
		tables = append(tables, quickTables(t, id)...)
	}
	if len(tables) < 10 {
		t.Fatalf("quick runs produced %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("empty table %q", tb.Title)
		}
	}
}

func TestExtFailoverZeroErrors(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, "ext-failover")
	out := tbl.String()
	if !strings.Contains(out, "server 0 down") || !strings.Contains(out, "recovered") {
		t.Fatalf("failover table malformed:\n%s", out)
	}
	// The dead-server-writes cell for the outage phase must be 0.
	for _, row := range tbl.Rows {
		if row[0] == "server 0 down" {
			if row[3] != "0" {
				t.Fatalf("errors during outage: %s", row[3])
			}
			if row[4] != "0" {
				t.Fatalf("dead server received writes: %s", row[4])
			}
		}
	}
}

func TestExtReadsServesBothOps(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, "ext-reads")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] == "0" || row[5] == "0" {
			t.Fatalf("config %s served no reads or writes: %v", row[0], row)
		}
	}
}
