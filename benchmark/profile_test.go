package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/disagg/smartds/internal/lz4"
)

func TestLayerOf(t *testing.T) {
	const in = "github.com/disagg/smartds/internal/"
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"innermost repo frame wins",
			[]string{"runtime.memmove", in + "lz4.(*Encoder).Compress", in + "middletier.(*Server).hostWrite", in + "sim.(*Env).Run"},
			"lz4"},
		{"closure counts for its defining package",
			[]string{in + "cluster.(*Cluster).Run.func2", in + "rdma.(*QP).deliver", in + "sim.(*Env).Run"},
			"cluster"},
		{"generic instantiation",
			[]string{in + "sim.(*Queue[go.shape.*uint8]).Put", in + "netsim.(*Port).Send"},
			"sim"},
		{"nested package path",
			[]string{in + "analysis/framework.(*Graph).Reach"},
			"analysis.framework"},
		{"background mark worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
			"runtime.gc"},
		{"assist inside repo code is collector work",
			[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", in + "trace.(*Tracer).record"},
			"runtime.gc"},
		{"benchmark binary frames",
			[]string{"encoding/json.Marshal", "main.runChild", "main.main"},
			"bench"},
		{"benchmark test binary frames",
			[]string{"sort.Float64s", "github.com/disagg/smartds/benchmark.median"},
			"bench"},
		{"no repo frame",
			[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
			"runtime.sched"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// sink keeps the profiled work observable to the compiler.
var sink []*node

type node struct{ next *node }

// TestFoldRecordedProfile records a real CPU profile of repo code (LZ4
// compression called through a closure defined here) and of collector
// work on a pointer-heavy heap, then folds it.
func TestFoldRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	block := make([]byte, 4096)
	for i := range block {
		block[i] = byte(i * i >> 5)
	}
	enc := lz4.NewEncoder(len(block))
	dst := make([]byte, lz4.CompressBound(len(block)))
	compress := func() {
		for i := 0; i < 200; i++ {
			if _, err := enc.Compress(dst, block, lz4.LevelDefault); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		compress()
	}
	for i := 0; i < 1<<20; i++ {
		sink = append(sink, &node{})
	}
	deadline = time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		runtime.GC()
	}
	pprof.StopCPUProfile()
	sink = nil

	counts, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if counts["lz4"] == 0 {
		t.Errorf("no samples attributed to lz4: %v", counts)
	}
	if counts["runtime.gc"] == 0 {
		t.Errorf("no samples attributed to runtime.gc: %v", counts)
	}
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, k := range sortedKeys(shares) {
		if shares[k] < 0 {
			t.Errorf("%s = %v", k, shares[k])
		}
		sum += shares[k]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
}

func TestFoldRejectsCorruptProfiles(t *testing.T) {
	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input accepted")
	}
	for _, raw := range [][]byte{
		{0x12, 0x05, 0x01},       // sample whose length runs past the end
		{0x12, 0x02, 0x0a, 0x00}, // sample without values
		{0x0b},                   // wire type 3 (groups) is not used by profile.proto
	} {
		if _, err := decodeProfile(raw); err == nil {
			t.Errorf("decodeProfile(%x) accepted corrupt input", raw)
		}
	}
}
