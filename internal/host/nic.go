package host

import (
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
)

// NIC is a plain host RDMA NIC (ConnectX-5-like): every received
// message is DMA-written across PCIe into host memory before software
// sees it, and every sent message is DMA-read back out. This is the
// network front end of the CPU-only and accelerator-enhanced baselines
// (paper Figure 1a/1b).
//
// The memory-traffic fractions model DDIO: MemWriteFraction is the
// share of received bytes that reach DRAM (evictions of retained
// buffers; 1 with DDIO off), MemReadFraction the share of sent bytes
// read from DRAM rather than LLC.
type NIC struct {
	env     *sim.Env
	stack   *rdma.Stack
	link    *pcie.Link
	hostMem *mem.System

	// MemWriteFraction and MemReadFraction scale how much of the DMA
	// traffic also hits DRAM. Defaults are 1 (no DDIO benefit).
	MemWriteFraction float64
	MemReadFraction  float64
}

// NewNIC creates a host NIC on the fabric.
func NewNIC(env *sim.Env, fabric *netsim.Fabric, addr netsim.Addr, portRate float64,
	pcieCfg pcie.Config, transport rdma.Config, hostMem *mem.System) *NIC {
	port := fabric.NewPort(addr, portRate)
	return &NIC{
		env:              env,
		stack:            rdma.NewStack(env, port, transport),
		link:             pcie.New(env, string(addr)+".pcie", pcieCfg),
		hostMem:          hostMem,
		MemWriteFraction: 1,
		MemReadFraction:  1,
	}
}

// Stack exposes the transport for connection setup.
func (n *NIC) Stack() *rdma.Stack { return n.stack }

// PCIe exposes the NIC's host link.
func (n *NIC) PCIe() *pcie.Link { return n.link }

// Addr returns the NIC's fabric address.
func (n *NIC) Addr() netsim.Addr { return n.stack.Addr() }

// CreateQP returns a QP whose receive path lands messages in host
// memory (PCIe D2H + DRAM write) before invoking onRecv with the QP
// the message arrived on.
func (n *NIC) CreateQP(onRecv func(*rdma.QP, *rdma.Message)) *rdma.QP {
	qp := n.stack.CreateQP()
	qp.OnRecv = func(m *rdma.Message) {
		n.env.Go("nic.rxdma", func(p *sim.Proc) {
			waits := [2]*sim.Event{n.link.StartDMA(pcie.D2H, m.Size)}
			k := 1
			if w := m.Size * n.MemWriteFraction; w > 0 {
				waits[1] = n.hostMem.StartWrite(w)
				k = 2
			}
			p.WaitAll(waits[:k]...)
			if onRecv != nil {
				onRecv(qp, m)
			}
		})
	}
	return qp
}

// Send transmits data that lives in host memory: DMA read over PCIe
// (plus the DRAM share) then the wire. The event fires on transport
// ACK.
func (n *NIC) Send(qp *rdma.QP, data []byte, size float64) *sim.Event {
	done := n.env.NewEvent()
	n.env.Go("nic.txdma", func(p *sim.Proc) {
		waits := [2]*sim.Event{n.link.StartDMA(pcie.H2D, size)}
		k := 1
		if r := size * n.MemReadFraction; r > 0 {
			waits[1] = n.hostMem.StartRead(r)
			k = 2
		}
		p.WaitAll(waits[:k]...)
		// SendSized keeps the modeled wire size even when only header
		// bytes are materialized (modeled-payload runs).
		done.Trigger(p.Wait(qp.SendSized(data, size)))
	})
	return done
}
