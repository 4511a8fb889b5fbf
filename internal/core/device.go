package core

import (
	"fmt"

	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// Config describes one SmartDS card.
type Config struct {
	// Ports is the number of utilized networking ports (SmartDS-N).
	Ports int
	// PortBytesPerSec is per-port line rate (100 Gbps default).
	PortBytesPerSec float64
	// EngineBytesPerSec is the per-port compression engine rate
	// (100 Gbps default, matching the prototype's 4 KB-block engines).
	EngineBytesPerSec float64
	// HBM configures the card's device memory.
	HBM device.MemoryConfig
	// PCIe configures the card's host link.
	PCIe pcie.Config
	// Transport configures the RoCE stacks.
	Transport rdma.Config
	// CompletionBytes is the size of the completion record DMA-written
	// to host memory when a descriptor finishes.
	CompletionBytes float64
	// Trace, when set, records split/assemble spans and engine
	// occupancy in virtual time. Nil disables tracing.
	Trace *trace.Tracer
}

// DefaultConfig returns the VCU128 prototype parameters.
func DefaultConfig(ports int) Config {
	return Config{
		Ports:             ports,
		PortBytesPerSec:   12.5e9,
		EngineBytesPerSec: 12.5e9,
		HBM:               device.DefaultHBM(),
		PCIe:              pcie.DefaultConfig(),
		Transport:         rdma.DefaultConfig(),
		CompletionBytes:   32,
	}
}

// Device is one SmartDS card plugged into a middle-tier server.
type Device struct {
	env       *sim.Env
	cfg       Config
	name      string
	hbm       *device.Memory
	pcieLink  *pcie.Link
	hostMem   *mem.System
	instances []*Instance

	fpga device.FPGAResources

	tr      *trace.Tracer
	spanSeq uint64 // split/assemble span correlation ids

	// compSlab hands out verb completions in bulk; see newCompletion.
	compSlab []Completion
	compPos  int
}

// NewDevice creates a SmartDS card attached to the fabric with one port
// per instance (addresses "<name>-p<i>") and to the host's memory
// system for header placement.
func NewDevice(env *sim.Env, name string, fabric *netsim.Fabric, hostMem *mem.System, cfg Config) *Device {
	if cfg.Ports < 1 {
		panic(fmt.Sprintf("core: SmartDS needs at least one port, got %d", cfg.Ports))
	}
	def := DefaultConfig(cfg.Ports)
	if cfg.PortBytesPerSec <= 0 {
		cfg.PortBytesPerSec = def.PortBytesPerSec
	}
	if cfg.EngineBytesPerSec <= 0 {
		cfg.EngineBytesPerSec = def.EngineBytesPerSec
	}
	if cfg.CompletionBytes <= 0 {
		cfg.CompletionBytes = def.CompletionBytes
	}
	d := &Device{
		env:      env,
		cfg:      cfg,
		name:     name,
		hbm:      device.NewMemory(env, name, cfg.HBM),
		pcieLink: pcie.New(env, name+".pcie", cfg.PCIe),
		hostMem:  hostMem,
		fpga:     device.SmartDSFootprint(cfg.Ports),
		tr:       cfg.Trace,
	}
	for i := 0; i < cfg.Ports; i++ {
		port := fabric.NewPort(netsim.Addr(fmt.Sprintf("%s-p%d", name, i)), cfg.PortBytesPerSec)
		inst := &Instance{
			dev:          d,
			index:        i,
			stack:        rdma.NewStack(env, port, cfg.Transport),
			engine:       device.NewEngine(env, fmt.Sprintf("%s.lz4[%d]", name, i), d.hbm, cfg.EngineBytesPerSec),
			splitName:    fmt.Sprintf("%s.split[%d]", name, i),
			assembleName: fmt.Sprintf("%s.assemble[%d]", name, i),
			devfuncName:  fmt.Sprintf("%s.devfunc[%d]", name, i),
			recvQ:        make(map[int]*qpRecvState),
		}
		inst.engine.SetTrace(cfg.Trace)
		d.instances = append(d.instances, inst)
	}
	return d
}

// Config returns the card's effective configuration.
func (d *Device) Config() Config { return d.cfg }

// Name returns the card name.
func (d *Device) Name() string { return d.name }

// HBM returns the card's device memory.
func (d *Device) HBM() *device.Memory { return d.hbm }

// PCIe returns the card's host link.
func (d *Device) PCIe() *pcie.Link { return d.pcieLink }

// FPGA returns the synthesized resource footprint (Table 3).
func (d *Device) FPGA() device.FPGAResources { return d.fpga }

// Ports returns the number of instances.
func (d *Device) Ports() int { return len(d.instances) }

// HostBuf is host-memory backing for message headers. Allocation is a
// plain malloc; traffic is charged when DMA touches it.
type HostBuf struct {
	data []byte
}

// Bytes exposes the buffer contents.
func (h *HostBuf) Bytes() []byte { return h.data }

// HostAlloc implements host_alloc(size) from Table 2.
func (d *Device) HostAlloc(size int) *HostBuf {
	if size <= 0 {
		panic("core: host_alloc size must be positive")
	}
	return &HostBuf{data: make([]byte, size)}
}

// DevAlloc implements dev_alloc(size): carve a buffer from HBM.
func (d *Device) DevAlloc(size int) (*device.Buffer, error) {
	return d.hbm.Alloc(size)
}

// OpenRoCEInstance implements open_roce_instance(instance_index).
func (d *Device) OpenRoCEInstance(index int) (*Instance, error) {
	if index < 0 || index >= len(d.instances) {
		return nil, fmt.Errorf("core: no RoCE instance %d (card has %d ports)", index, len(d.instances))
	}
	return d.instances[index], nil
}
