package middletier_test

import (
	"math"
	"testing"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/middletier"
)

// The tests below each pin one way the modeled payload mode once timed
// a request differently from the functional mode.

// leakRun runs a small closed loop on one design and returns the
// cluster for inspection.
func leakRun(t *testing.T, kind middletier.Kind, functional bool, reads float64) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig(kind)
	cfg.Functional = functional
	cfg.MT.HBM = device.MemoryConfig{Capacity: 256 << 20}
	cfg.MT.SmartDSInflight = 32
	c := cluster.New(cfg)
	res := c.Run(cluster.Workload{Window: 8, Warmup: 0.2e-3, Measure: 0.8e-3, ReadFraction: reads})
	if res.Requests == 0 || res.Errors != 0 || c.MT.WritesDone == 0 || (reads > 0) != (c.MT.ReadsDone > 0) {
		t.Fatalf("%v functional=%v: %d requests, %d errors, %d writes, %d reads",
			kind, functional, res.Requests, res.Errors, c.MT.WritesDone, c.MT.ReadsDone)
	}
	return c
}

// storedFrame is the mean frame size a write-only run stored per
// replica.
func storedFrame(c *cluster.Cluster) float64 {
	mt := c.MT
	return mt.BytesStored / float64(mt.WritesDone*uint64(mt.Config().Replicas))
}

// TestModeledFramesCarryHeader: every design stores a modeled block as
// an LZ4 frame, header included, as every functional frame is stored.
// CPU-only, Acc and BF2 once stored the modeled compressed bytes alone,
// charging SmartDS alone for the 16 header bytes of each replica.
func TestModeledFramesCarryHeader(t *testing.T) {
	const modelRatio = 2.1 // the middle tier's compression ratio for modeled payloads
	want := lz4.FrameHeaderSize + 4096/modelRatio
	for _, kind := range []middletier.Kind{middletier.CPUOnly, middletier.Accel, middletier.BF2, middletier.SmartDS} {
		if got := storedFrame(leakRun(t, kind, false, 0)); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%v stores %g-byte modeled frames, want %g (header included)", kind, got, want)
		}
	}
}

// TestModeledAccReadChargesCard: a modeled Acc read decompresses on the
// card, so the card's PCIe link carries each read's frame in and its
// block back out, as for a functional read. Modeled reads once skipped
// the card entirely.
func TestModeledAccReadChargesCard(t *testing.T) {
	c := leakRun(t, middletier.Accel, false, 0.5)
	writes, reads := float64(c.MT.WritesDone), float64(c.MT.ReadsDone)
	frame := c.MT.BytesStored / (writes * float64(c.MT.Config().Replicas))
	// A fetched frame's length comes back in its header, in whole bytes.
	fetched := math.Trunc(frame)
	block := float64(c.MT.Config().BlockSize)
	link := c.MT.AccelPCIe().Snapshot()
	for _, d := range []struct {
		dir       string
		got, want float64
	}{
		{"H2D", link.H2DBytes, writes*block + reads*fetched},
		{"D2H", link.D2HBytes, writes*frame + reads*block},
	} {
		if math.Abs(d.got-d.want) > 1e-9*d.want {
			t.Errorf("card %s carried %g bytes for %g writes and %g reads, want %g", d.dir, d.got, writes, reads, d.want)
		}
	}
}

// TestModeledSmartDSWritePaysDevFuncDMA: a modeled SmartDS write
// compresses through the dev_func verb, whose completion record is
// DMA-written to host memory, so its card-to-host traffic per write
// equals a functional write's. Modeled writes once ran the engine
// directly and skipped that completion DMA.
func TestModeledSmartDSWritePaysDevFuncDMA(t *testing.T) {
	perWrite := func(functional bool) float64 {
		c := leakRun(t, middletier.SmartDS, functional, 0)
		return c.MT.Device().PCIe().Snapshot().D2HBytes / float64(c.MT.WritesDone)
	}
	if fun, mod := perWrite(true), perWrite(false); fun != mod {
		t.Fatalf("card-to-host bytes per write: functional %g, modeled %g", fun, mod)
	}
}

// TestModeledSmartDSReadsSucceed: a modeled SmartDS write stores a
// modeled frame, which a later read decodes by size like any modeled
// frame. The Assemble module once gathered the frame's HBM buffer,
// which holds no frame, so storage kept those bytes and every read of
// them failed to decode.
func TestModeledSmartDSReadsSucceed(t *testing.T) {
	leakRun(t, middletier.SmartDS, false, 0.5)
}
