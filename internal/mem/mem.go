// Package mem models the middle-tier server's host memory subsystem:
// a processor-shared memory bus with separate read/write accounting, a
// last-level cache with Intel DDIO way allocation, and an Intel-MLC-like
// interference injector.
//
// The paper's motivation (§3.1.2, Figure 4) and isolation results
// (§5.3, Figure 9) hinge on this subsystem: network DMA, software
// compression, and co-located maintenance services all compete for the
// same ~120 GB/s of achievable DRAM bandwidth.
package mem

import (
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/sim"
)

// Config sets the memory subsystem's capacities. Zero fields take the
// defaults measured on the paper's testbed (2x Xeon Silver 4214, 8
// channels DDR4-2400).
type Config struct {
	// BusBytesPerSec is total achievable DRAM bandwidth (reads+writes).
	BusBytesPerSec float64
	// AccessLatency is the uncontended DRAM access latency charged per
	// Read/Write call in addition to transfer time.
	AccessLatency float64
	// LLCBytes is last-level cache capacity.
	LLCBytes float64
	// TotalWays and DDIOWays partition the LLC; DMA writes may allocate
	// only into the DDIO ways.
	TotalWays int
	DDIOWays  int
	// DDIOEnabled mirrors the BIOS knob the paper toggles in Fig. 8.
	DDIOEnabled bool
}

// DefaultConfig returns the paper's testbed parameters.
func DefaultConfig() Config {
	return Config{
		BusBytesPerSec: 120e9,    // ~120 GB/s achievable over 8 channels
		AccessLatency:  90e-9,    // uncontended DRAM access
		LLCBytes:       16 << 20, // 16 MiB
		TotalWays:      11,
		DDIOWays:       2,
		DDIOEnabled:    true,
	}
}

// System is the host memory subsystem.
type System struct {
	env *sim.Env
	cfg Config
	bus *sim.PSLink

	readBytes  *metrics.Meter
	writeBytes *metrics.Meter
}

// New creates a memory system.
func New(env *sim.Env, cfg Config) *System {
	def := DefaultConfig()
	if cfg.BusBytesPerSec <= 0 {
		cfg.BusBytesPerSec = def.BusBytesPerSec
	}
	if cfg.AccessLatency <= 0 {
		cfg.AccessLatency = def.AccessLatency
	}
	if cfg.LLCBytes <= 0 {
		cfg.LLCBytes = def.LLCBytes
	}
	if cfg.TotalWays <= 0 {
		cfg.TotalWays = def.TotalWays
	}
	if cfg.DDIOWays <= 0 {
		cfg.DDIOWays = def.DDIOWays
	}
	return &System{
		env:        env,
		cfg:        cfg,
		bus:        env.NewPSLink("membus", cfg.BusBytesPerSec),
		readBytes:  metrics.NewMeter(env.Now()),
		writeBytes: metrics.NewMeter(env.Now()),
	}
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// StartRead begins a read of n bytes; the event fires when the bus has
// delivered them.
func (s *System) StartRead(n float64) *sim.Event {
	s.readBytes.Add(n)
	return s.bus.Start(n)
}

// StartWrite begins a write of n bytes.
func (s *System) StartWrite(n float64) *sim.Event {
	s.writeBytes.Add(n)
	return s.bus.Start(n)
}

// Read blocks the process for an n-byte read (latency + bandwidth).
func (s *System) Read(p *sim.Proc, n float64) {
	if n <= 0 {
		return
	}
	p.Sleep(s.cfg.AccessLatency)
	p.Wait(s.StartRead(n))
}

// Write blocks the process for an n-byte write.
func (s *System) Write(p *sim.Proc, n float64) {
	if n <= 0 {
		return
	}
	p.Sleep(s.cfg.AccessLatency)
	p.Wait(s.StartWrite(n))
}

// BandwidthSnapshot captures cumulative read/write byte counters.
type BandwidthSnapshot struct {
	ReadBytes  float64
	WriteBytes float64
	At         sim.Time
}

// Snapshot returns the counters at the current instant.
func (s *System) Snapshot() BandwidthSnapshot {
	return BandwidthSnapshot{
		ReadBytes:  s.readBytes.Total(),
		WriteBytes: s.writeBytes.Total(),
		At:         s.env.Now(),
	}
}

// RatesBetween returns (readB/s, writeB/s) between two snapshots.
func RatesBetween(a, b BandwidthSnapshot) (float64, float64) {
	dt := b.At - a.At
	if dt <= 0 {
		return 0, 0
	}
	return (b.ReadBytes - a.ReadBytes) / dt, (b.WriteBytes - a.WriteBytes) / dt
}

// DDIOCapacity returns the bytes of LLC available to DMA writes.
func (s *System) DDIOCapacity() float64 {
	if !s.cfg.DDIOEnabled {
		return 0
	}
	return s.cfg.LLCBytes * float64(s.cfg.DDIOWays) / float64(s.cfg.TotalWays)
}

// WriteEvictFraction estimates the fraction of DMA-written bytes that
// eventually reach DRAM because the buffers are *retained* (the paper
// measures a ~32 ms buffer lifetime => ~400 MB working set at 100 Gbps,
// far beyond the DDIO ways). Retention beyond the DDIO capacity forces
// eviction; with DDIO off, every DMA write goes straight to DRAM.
func (s *System) WriteEvictFraction(retainedWS float64) float64 {
	cap := s.DDIOCapacity()
	if cap <= 0 {
		return 1
	}
	if retainedWS <= cap {
		return 0
	}
	return 1 - cap/retainedWS
}

// ContentionFactor models DRAM latency amplification under load: when
// many agents (the MLC injector's 16 workers, §5.3) keep the bus
// saturated, every individual access — a compressing core's cache
// misses, a DMA engine's reads — stalls longer. The factor is 1.0 until
// the bus holds more than a handful of concurrent transfers, then grows
// toward a 3x cap at injector-level pressure. Fluid bandwidth sharing
// alone cannot express this (a 4 KB transfer's fair share is always
// "fast enough"); latency amplification is what actually collapses the
// CPU-only and Acc designs in Figure 9.
func (s *System) ContentionFactor() float64 {
	jobs := float64(s.bus.InFlight())
	f := 1 + (jobs-4)/6
	if f < 1 {
		return 1
	}
	if f > 3 {
		return 3
	}
	return f
}

// RetainedWorkingSet applies Little's law: traffic (bytes/s) times the
// buffer lifetime gives the resident buffer bytes (paper §3.2).
func RetainedWorkingSet(trafficBytesPerSec, lifetime float64) float64 {
	return trafficBytesPerSec * lifetime
}
