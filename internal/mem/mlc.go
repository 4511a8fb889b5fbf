package mem

import (
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/sim"
)

// MLC is an Intel Memory Latency Checker stand-in: worker loops that
// inject dummy memory traffic with a configurable delay between
// requests, exactly how the paper dials memory pressure in Figures 4
// and 9. Delay zero saturates the bus; larger delays throttle pressure.
type MLC struct {
	env     *sim.Env
	mem     *System
	workers int
	delay   float64
	chunk   float64

	running bool
	moved   *metrics.Meter
}

// MLCConfig parameterizes the injector.
type MLCConfig struct {
	Workers int     // concurrent injector loops (the paper uses 16 cores)
	Delay   float64 // pause between injected requests (seconds)
	Chunk   float64 // bytes per injected request (read+write halves)
}

// NewMLC creates an injector bound to a memory system.
func NewMLC(env *sim.Env, m *System, cfg MLCConfig) *MLC {
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 64 << 10 // 64 KiB streaming stride
	}
	return &MLC{
		env:     env,
		mem:     m,
		workers: cfg.Workers,
		delay:   cfg.Delay,
		chunk:   cfg.Chunk,
		moved:   metrics.NewMeter(env.Now()),
	}
}

// Start launches the worker loops. They run until Stop is called.
func (m *MLC) Start() {
	if m.running {
		return
	}
	m.running = true
	for i := 0; i < m.workers; i++ {
		m.env.Go("mlc-worker", func(p *sim.Proc) {
			for m.running {
				// MLC's buffer walk: half reads, half writes.
				m.mem.Read(p, m.chunk/2)
				m.mem.Write(p, m.chunk/2)
				m.moved.Add(m.chunk)
				if m.delay > 0 {
					p.Sleep(m.delay)
				} else {
					p.Yield()
				}
			}
		})
	}
}

// Stop asks the workers to exit after their current iteration.
func (m *MLC) Stop() { m.running = false }

// MarkWindow returns the injector's achieved bytes/second since the
// previous mark — the "MLC bandwidth" series of Figures 4 and 9.
func (m *MLC) MarkWindow() float64 { return m.moved.MarkWindow(m.env.Now()) }
