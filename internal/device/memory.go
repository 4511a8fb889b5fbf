// Package device models the SmartNIC hardware substrate: HBM device
// memory with a real allocator and channelized bandwidth, the hardware
// engine framework (with a functional LZ4 compression engine), DMA
// plumbing, and the FPGA resource model behind the paper's Table 3.
package device

import (
	"errors"
	"fmt"
	"sort"

	"github.com/disagg/smartds/internal/sim"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("device: out of device memory")

// MemoryConfig sets device memory parameters. The defaults are the
// VCU128's 8 GB HBM with 3.4 Tbps aggregate bandwidth over 16 channels.
type MemoryConfig struct {
	Capacity      int     // bytes
	BytesPerSec   float64 // aggregate bandwidth
	AccessLatency float64 // fixed per-access latency
}

// DefaultHBM returns the VCU128 HBM parameters (Shuhai-measured).
func DefaultHBM() MemoryConfig {
	return MemoryConfig{
		Capacity:      8 << 30,
		BytesPerSec:   425e9, // 3.4 Tbps
		AccessLatency: 120e-9,
	}
}

// Memory is a device-resident memory: functional storage (real bytes)
// plus a bandwidth/latency model. Buffers are allocated out of a single
// arena with a first-fit free list (with coalescing), mirroring how the
// SmartDS driver carves HBM for payload buffers.
type Memory struct {
	env *sim.Env
	cfg MemoryConfig
	bus *sim.PSLink

	free  []span // sorted by addr, coalesced
	used  map[int]int
	inUse int
}

type span struct{ addr, size int }

// NewMemory creates a device memory arena.
func NewMemory(env *sim.Env, name string, cfg MemoryConfig) *Memory {
	def := DefaultHBM()
	if cfg.Capacity <= 0 {
		cfg.Capacity = def.Capacity
	}
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = def.BytesPerSec
	}
	if cfg.AccessLatency <= 0 {
		cfg.AccessLatency = def.AccessLatency
	}
	return &Memory{
		env:  env,
		cfg:  cfg,
		bus:  env.NewPSLink(name+".hbm", cfg.BytesPerSec),
		free: []span{{0, cfg.Capacity}},
		used: make(map[int]int),
	}
}

// Config returns the effective configuration.
func (m *Memory) Config() MemoryConfig { return m.cfg }

// InUse returns currently allocated bytes.
func (m *Memory) InUse() int { return m.inUse }

// Buffer is an allocated region of device memory. Each buffer carries
// its own backing storage (the arena tracks only addresses, so an 8 GB
// HBM costs host RAM proportional to live allocations, not capacity);
// writes through Bytes() are the "DMA" data path.
type Buffer struct {
	mem  *Memory
	addr int
	size int
	data []byte
}

// Alloc carves size bytes out of the arena (first fit).
func (m *Memory) Alloc(size int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("device: invalid allocation size %d", size)
	}
	for i, f := range m.free {
		if f.size >= size {
			b := &Buffer{mem: m, addr: f.addr, size: size, data: make([]byte, size)}
			if f.size == size {
				m.free = append(m.free[:i], m.free[i+1:]...)
			} else {
				m.free[i] = span{f.addr + size, f.size - size}
			}
			m.used[b.addr] = size
			m.inUse += size
			return b, nil
		}
	}
	return nil, ErrOutOfMemory
}

// Free returns the buffer's region to the arena and coalesces adjacent
// free spans. Double free panics: it always indicates a driver bug.
func (b *Buffer) Free() {
	m := b.mem
	size, ok := m.used[b.addr]
	if !ok || size != b.size {
		panic(fmt.Sprintf("device: double or invalid free at %d (+%d)", b.addr, b.size))
	}
	delete(m.used, b.addr)
	m.inUse -= b.size
	// Insert in address order, then merge with the neighbours; the
	// list stays sorted and coalesced.
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].addr > b.addr })
	s := span{b.addr, b.size}
	mergePrev := i > 0 && m.free[i-1].addr+m.free[i-1].size == s.addr
	mergeNext := i < len(m.free) && s.addr+s.size == m.free[i].addr
	switch {
	case mergePrev && mergeNext:
		m.free[i-1].size += s.size + m.free[i].size
		m.free = append(m.free[:i], m.free[i+1:]...)
	case mergePrev:
		m.free[i-1].size += s.size
	case mergeNext:
		m.free[i] = span{s.addr, s.size + m.free[i].size}
	default:
		m.free = append(m.free, span{})
		copy(m.free[i+1:], m.free[i:])
		m.free[i] = s
	}
}

// Addr returns the buffer's device address.
func (b *Buffer) Addr() int { return b.addr }

// Size returns the buffer length in bytes.
func (b *Buffer) Size() int { return b.size }

// Bytes exposes the underlying storage.
func (b *Buffer) Bytes() []byte { return b.data }

// Mem returns the owning memory.
func (b *Buffer) Mem() *Memory { return b.mem }

// StartAccess begins an n-byte memory access; reads and writes share
// the channelized bandwidth.
func (m *Memory) StartAccess(n float64) *sim.Event { return m.bus.Start(n) }

// Access blocks the process for an n-byte device memory access.
func (m *Memory) Access(p *sim.Proc, n float64) {
	if n <= 0 {
		return
	}
	p.Sleep(m.cfg.AccessLatency)
	p.Wait(m.StartAccess(n))
}

// BusStats exposes the bandwidth counters.
func (m *Memory) BusStats() sim.LinkStats { return m.bus.Snapshot() }
