// Package pcie models a PCIe endpoint link: full-duplex processor-
// shared bandwidth plus load-dependent DMA latency.
//
// The paper's Table 1 measures 1.4 µs H2D/D2H DMA latency on an idle
// PCIe 3.0 x16 link, rising to 11.3 µs (H2D) and 6.6 µs (D2H) when the
// link is heavily loaded; §3.1.3 argues this extra latency leaks into
// end-to-end storage latency for host-bounced designs. The model
// reproduces this with a calibrated latency curve: base latency plus a
// loaded-latency term that scales with instantaneous queue pressure.
package pcie

import (
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/sim"
)

// Direction of a DMA transfer relative to the host.
type Direction int

const (
	// H2D is host-to-device: the device DMA-reads host memory.
	H2D Direction = iota
	// D2H is device-to-host: the device DMA-writes host memory.
	D2H
)

func (d Direction) String() string {
	if d == H2D {
		return "H2D"
	}
	return "D2H"
}

// Config sets the link parameters. Zero fields take PCIe 3.0 x16
// defaults from the paper's testbed.
type Config struct {
	// BytesPerSec is achievable bandwidth per direction (~104 Gbps).
	BytesPerSec float64
	// BaseLatency is the unloaded DMA completion latency.
	BaseLatency float64
	// LoadedLatencyH2D / D2H are the asymptotic extra latencies when the
	// link is saturated (Table 1 calibration points).
	LoadedLatencyH2D float64
	LoadedLatencyD2H float64
	// LoadThreshold is the outstanding-bytes level treated as "heavily
	// loaded" for the latency curve.
	LoadThreshold float64
}

// DefaultConfig returns PCIe 3.0 x16 parameters.
func DefaultConfig() Config {
	return Config{
		BytesPerSec:      13e9, // ~104 Gbps achievable
		BaseLatency:      1.4e-6,
		LoadedLatencyH2D: 11.3e-6,
		LoadedLatencyD2H: 6.6e-6,
		LoadThreshold:    256 << 10,
	}
}

// Link is one PCIe endpoint (a NIC, an accelerator card, a SmartNIC).
type Link struct {
	env *sim.Env
	cfg Config
	h2d *sim.PSLink
	d2h *sim.PSLink

	h2dBytes *metrics.Meter
	d2hBytes *metrics.Meter

	outstanding [2]float64 // in-flight bytes per direction
	freeOps     []*dmaOp
}

// dmaOp is one in-flight DMA: the bandwidth share on its direction's
// PS link, then the sampled completion latency. Ops are pooled per link
// and their callbacks are bound once per op, so a steady-state StartDMA
// allocates nothing beyond its slab-carved completion event.
type dmaOp struct {
	l      *Link
	dir    Direction
	n      float64
	lat    float64
	done   *sim.Event
	xferFn func()
	fireFn func()
}

// xfer runs when the transfer's bytes have crossed the link, at the
// point where Start's event would fire: the bytes stop counting toward
// the load curve and the completion latency starts.
//
//hot:per-DMA transfer completion, pinned by TestStartDMAZeroAllocs
func (op *dmaOp) xfer() {
	op.l.outstanding[op.dir] -= op.n
	op.l.env.After(op.lat, op.fireFn)
}

// fire completes the DMA. The op returns to the pool before the
// trigger, since waiters routinely start the next DMA.
//
//hot:per-DMA completion, pinned by TestStartDMAZeroAllocs
func (op *dmaOp) fire() {
	l, done := op.l, op.done
	op.done = nil
	//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
	l.freeOps = append(l.freeOps, op)
	done.Trigger(nil)
}

// New creates a link. Name distinguishes multiple endpoints.
func New(env *sim.Env, name string, cfg Config) *Link {
	def := DefaultConfig()
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = def.BytesPerSec
	}
	if cfg.BaseLatency <= 0 {
		cfg.BaseLatency = def.BaseLatency
	}
	if cfg.LoadedLatencyH2D <= 0 {
		cfg.LoadedLatencyH2D = def.LoadedLatencyH2D
	}
	if cfg.LoadedLatencyD2H <= 0 {
		cfg.LoadedLatencyD2H = def.LoadedLatencyD2H
	}
	if cfg.LoadThreshold <= 0 {
		cfg.LoadThreshold = def.LoadThreshold
	}
	return &Link{
		env:      env,
		cfg:      cfg,
		h2d:      env.NewPSLink(name+".h2d", cfg.BytesPerSec),
		d2h:      env.NewPSLink(name+".d2h", cfg.BytesPerSec),
		h2dBytes: metrics.NewMeter(env.Now()),
		d2hBytes: metrics.NewMeter(env.Now()),
	}
}

// Config returns the effective configuration.
func (l *Link) Config() Config { return l.cfg }

// loadFactor returns 0..1 pressure for the latency curve.
func (l *Link) loadFactor(dir Direction) float64 {
	f := l.outstanding[dir] / l.cfg.LoadThreshold
	if f > 1 {
		return 1
	}
	return f
}

// Latency returns the current DMA completion latency in the given
// direction; it interpolates between the idle and loaded calibration
// points of Table 1.
func (l *Link) Latency(dir Direction) float64 {
	loaded := l.cfg.LoadedLatencyH2D
	if dir == D2H {
		loaded = l.cfg.LoadedLatencyD2H
	}
	return l.cfg.BaseLatency + (loaded-l.cfg.BaseLatency)*l.loadFactor(dir)
}

// StartDMA begins a transfer of n bytes in the given direction and
// returns its completion event. Latency is sampled at issue time.
//
//hot:per-DMA issue, pinned by TestStartDMAZeroAllocs
func (l *Link) StartDMA(dir Direction, n float64) *sim.Event {
	if n < 0 {
		n = 0
	}
	op := l.getOp()
	done := l.env.NewEvent()
	op.dir, op.n, op.lat, op.done = dir, n, l.Latency(dir), done
	link := l.h2d
	meter := l.h2dBytes
	if dir == D2H {
		link = l.d2h
		meter = l.d2hBytes
	}
	meter.Add(n)
	l.outstanding[dir] += n
	link.StartFunc(n, op.xferFn)
	return done
}

// getOp takes a DMA op from the pool.
func (l *Link) getOp() *dmaOp {
	if n := len(l.freeOps); n > 0 {
		op := l.freeOps[n-1]
		l.freeOps[n-1] = nil
		l.freeOps = l.freeOps[:n-1]
		return op
	}
	//detcheck:hotalloc pool miss: warmup-only, bounded by the peak number of DMAs in flight
	op := &dmaOp{l: l}
	op.xferFn = op.xfer
	op.fireFn = op.fire
	return op
}

// DMARead blocks while the device reads n bytes from host memory (H2D).
func (l *Link) DMARead(p *sim.Proc, n float64) { p.Wait(l.StartDMA(H2D, n)) }

// DMAWrite blocks while the device writes n bytes to host memory (D2H).
func (l *Link) DMAWrite(p *sim.Proc, n float64) { p.Wait(l.StartDMA(D2H, n)) }

// Doorbell models an MMIO write from CPU to device (descriptor ring
// doorbells); it is latency-only and cheap.
func (l *Link) Doorbell(p *sim.Proc) { p.Sleep(l.cfg.BaseLatency / 2) }

// Snapshot captures the cumulative per-direction byte counters.
type Snapshot struct {
	H2DBytes float64
	D2HBytes float64
	At       sim.Time
}

// Snapshot returns the counters at the current instant.
func (l *Link) Snapshot() Snapshot {
	return Snapshot{H2DBytes: l.h2dBytes.Total(), D2HBytes: l.d2hBytes.Total(), At: l.env.Now()}
}

// RatesBetween returns (H2D B/s, D2H B/s) between two snapshots.
func RatesBetween(a, b Snapshot) (float64, float64) {
	dt := b.At - a.At
	if dt <= 0 {
		return 0, 0
	}
	return (b.H2DBytes - a.H2DBytes) / dt, (b.D2HBytes - a.D2HBytes) / dt
}
