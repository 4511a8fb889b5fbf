// Package netsim models the datacenter fabric connecting compute
// servers, the middle-tier server, and storage servers: full-duplex
// ports with processor-shared bandwidth, wire/switch latency, framing
// overhead per packet, and an optional loss injector for transport
// testing.
//
// The fabric is message-granular: each message charges the sender's TX
// link and the receiver's RX link concurrently (flow-level fluid
// approximation) and arrives one wire latency after serialization.
package netsim

import (
	"fmt"
	"math"

	"github.com/disagg/smartds/internal/sim"
)

// Addr identifies a port on the fabric.
type Addr string

// Message is one fabric-level datagram. Payload is opaque to the
// fabric; the transport layer above defines it.
type Message struct {
	Src, Dst  Addr
	WireBytes float64
	Payload   interface{}
}

// Config sets fabric-wide parameters.
type Config struct {
	// WireLatency is propagation + switching delay, one way.
	WireLatency float64
	// MTU is the maximum payload carried per packet.
	MTU float64
	// PerPktOverhead is framing overhead per packet (Ethernet + IP +
	// UDP + RoCE BTH + ICRC + preamble/IFG).
	PerPktOverhead float64
}

// DefaultConfig returns datacenter-typical parameters (the paper's
// testbed uses 100 GbE RoCE with ~2 µs fabric RTT contribution).
func DefaultConfig() Config {
	return Config{
		WireLatency:    1e-6,
		MTU:            4096,
		PerPktOverhead: 80,
	}
}

// Fabric is the switch plus cabling. It is non-blocking internally:
// only port links constrain bandwidth.
type Fabric struct {
	env   *sim.Env
	cfg   Config
	ports map[Addr]*Port
	// DropFn, when set, is consulted per message; returning true drops
	// the message after TX serialization (loss injection for transport
	// tests). Nil means a lossless fabric.
	dropFn func(*Message) bool
	// pairs resequences deliveries per (src, dst): a wire path is FIFO,
	// but the fluid bandwidth model can let a small message's transfer
	// finish before an earlier large one — physically impossible on one
	// path — so completed transfers are released in send order.
	pairs map[pairKey]*pairState
	// freeXfers pools in-flight transfer nodes.
	freeXfers []*xfer
}

type pairKey struct{ src, dst Addr }

type pairState struct {
	nextSend    uint64
	nextDeliver uint64
	// ready buffers out-of-order completions; it is allocated lazily
	// because the in-order case (by far the common one under fluid
	// bandwidth sharing) never touches it.
	ready map[uint64]*Message
}

// xfer tracks one message crossing the fabric: TX and RX serialization
// completing (in either order), then one wire latency, then in-order
// release to the destination handler. Nodes are pooled and their
// callbacks are bound once per node, so a steady-state Send allocates
// nothing.
type xfer struct {
	f         *Fabric
	dst       *Port
	st        *pairState
	m         *Message
	onSent    func()
	seq       uint64
	remaining int
	txFn      func()
	rxFn      func()
	postFn    func()
}

// getXfer takes a transfer node from the pool.
func (f *Fabric) getXfer() *xfer {
	if n := len(f.freeXfers); n > 0 {
		x := f.freeXfers[n-1]
		f.freeXfers[n-1] = nil
		f.freeXfers = f.freeXfers[:n-1]
		return x
	}
	//detcheck:hotalloc pool miss: warmup-only, steady state recycles via freeXfers
	x := &xfer{f: f}
	x.txFn = x.txDone
	x.rxFn = x.dec
	x.postFn = x.post
	return x
}

// txDone runs when the last byte leaves the sender: the transfer's own
// bookkeeping first, then the sender's completion.
func (x *xfer) txDone() {
	onSent := x.onSent
	x.onSent = nil
	x.dec()
	if onSent != nil {
		onSent()
	}
}

// dec counts one finished serialization; the second starts the wire
// hop.
func (x *xfer) dec() {
	x.remaining--
	if x.remaining == 0 {
		x.f.env.After(x.f.cfg.WireLatency, x.postFn)
	}
}

// post runs one wire latency after both serializations finish: it hands
// the message to the destination in send order. The node is released
// before the handler runs, since handlers routinely Send in response.
//
//hot:per-message fabric path, pinned by TestPortSendZeroAllocs
func (x *xfer) post() {
	f, dst, st, m, seq := x.f, x.dst, x.st, x.m, x.seq
	x.dst = nil
	x.st = nil
	x.m = nil
	//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
	f.freeXfers = append(f.freeXfers, x)
	if seq != st.nextDeliver {
		// Out of order: a message posted earlier on this path is still in
		// flight. Park until it lands.
		if st.ready == nil {
			//detcheck:hotalloc first reordering on a path: the buffer is kept for the run
			st.ready = make(map[uint64]*Message)
		}
		st.ready[seq] = m
		return
	}
	st.nextDeliver++
	if dst.handler != nil {
		dst.handler(m)
	}
	for len(st.ready) > 0 {
		next, ok := st.ready[st.nextDeliver]
		if !ok {
			return
		}
		delete(st.ready, st.nextDeliver)
		st.nextDeliver++
		if dst.handler != nil {
			dst.handler(next)
		}
	}
}

// NewFabric creates an empty fabric.
func NewFabric(env *sim.Env, cfg Config) *Fabric {
	def := DefaultConfig()
	if cfg.WireLatency <= 0 {
		cfg.WireLatency = def.WireLatency
	}
	if cfg.MTU <= 0 {
		cfg.MTU = def.MTU
	}
	if cfg.PerPktOverhead < 0 {
		cfg.PerPktOverhead = def.PerPktOverhead
	}
	return &Fabric{env: env, cfg: cfg, ports: make(map[Addr]*Port), pairs: make(map[pairKey]*pairState)}
}

// Config returns the effective configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetLossFn installs a message-drop predicate (nil restores lossless).
func (f *Fabric) SetLossFn(fn func(*Message) bool) { f.dropFn = fn }

// LossFn returns the installed drop predicate (nil when lossless), so
// an injector can chain a previously installed one instead of silently
// replacing it.
func (f *Fabric) LossFn() func(*Message) bool { return f.dropFn }

// Port returns the port bound to addr, or nil — fault injection and
// tests reach ports by address.
func (f *Fabric) Port(addr Addr) *Port { return f.ports[addr] }

// WireSize returns the on-wire bytes for a payload of n bytes,
// accounting for per-packet framing at the fabric MTU.
func (f *Fabric) WireSize(n float64) float64 {
	if n < 0 {
		n = 0
	}
	pkts := math.Ceil(n / f.cfg.MTU)
	if pkts < 1 {
		pkts = 1
	}
	return n + pkts*f.cfg.PerPktOverhead
}

// Port is one network interface attached to the fabric.
type Port struct {
	fabric  *Fabric
	addr    Addr
	tx, rx  *sim.PSLink
	handler func(*Message)
}

// NewPort attaches a port with the given per-direction rate in
// bytes/second. Addresses must be unique.
func (f *Fabric) NewPort(addr Addr, bytesPerSec float64) *Port {
	if _, dup := f.ports[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate port address %q", addr))
	}
	p := &Port{
		fabric: f,
		addr:   addr,
		tx:     f.env.NewPSLink(string(addr)+".tx", bytesPerSec),
		rx:     f.env.NewPSLink(string(addr)+".rx", bytesPerSec),
	}
	f.ports[addr] = p
	return p
}

// Addr returns the port's fabric address.
func (p *Port) Addr() Addr { return p.addr }

// Fabric returns the fabric the port is attached to.
func (p *Port) Fabric() *Fabric { return p.fabric }

// SetHandler installs the receive callback. Messages arriving before a
// handler is installed are dropped (as real NICs drop to unbound
// queues).
func (p *Port) SetHandler(fn func(*Message)) { p.handler = fn }

// TxStats and RxStats expose the underlying link counters for
// bandwidth reporting.
func (p *Port) TxStats() sim.LinkStats { return p.tx.Snapshot() }
func (p *Port) RxStats() sim.LinkStats { return p.rx.Snapshot() }

// Rate returns the port's per-direction capacity in bytes/second.
func (p *Port) Rate() float64 { return p.tx.Rate() }

// WireTime returns the unloaded time for n on-wire bytes to cross this
// port and the fabric: serialization at the port's current rate plus
// one wire latency. Anything a real transfer takes beyond this is
// contention — queueing behind other transfers, retransmits, ack
// turnaround — which is the wait share of a send span's duration.
func (p *Port) WireTime(n float64) float64 {
	if n < 0 {
		n = 0
	}
	r := p.tx.Rate()
	if r <= 0 {
		return p.fabric.cfg.WireLatency
	}
	return n/r + p.fabric.cfg.WireLatency
}

// TxQueueLen and RxQueueLen report the number of transfers currently
// serializing through each direction of the port — the instantaneous
// queue depth the telemetry sampler records per sim-clock tick.
func (p *Port) TxQueueLen() int { return p.tx.InFlight() }
func (p *Port) RxQueueLen() int { return p.rx.InFlight() }

// SetRate rescales both directions of the port mid-run (link-rate
// degradation faults). In-flight transfers continue at the new rate.
func (p *Port) SetRate(bytesPerSec float64) {
	p.tx.SetRate(bytesPerSec)
	p.rx.SetRate(bytesPerSec)
}

// Send serializes the message out of this port. onSent, when non-nil,
// runs when the last byte leaves the sender (TX complete); delivery to
// the destination handler happens one wire latency after both TX and
// the receiver's RX serialization complete. Unknown destinations and
// loss-injected messages silently vanish after TX, exactly like a real
// fabric. The fabric holds m until it is delivered or dropped, and
// never touches it afterwards.
//
//hot:per-message fabric path, pinned by TestPortSendZeroAllocs
func (p *Port) Send(m *Message, onSent func()) {
	if m.Src == "" {
		m.Src = p.addr
	}
	if m.WireBytes < 0 {
		m.WireBytes = 0
	}
	f := p.fabric
	dst, ok := f.ports[m.Dst]
	if !ok || (f.dropFn != nil && f.dropFn(m)) {
		p.tx.StartFunc(m.WireBytes, onSent)
		return
	}
	key := pairKey{src: m.Src, dst: m.Dst}
	st := f.pairs[key]
	if st == nil {
		//detcheck:hotalloc first message on a path: one state per (src, dst) pair for the run
		st = &pairState{}
		f.pairs[key] = st
	}
	x := f.getXfer()
	x.dst = dst
	x.st = st
	x.m = m
	x.seq = st.nextSend
	st.nextSend++
	if m.WireBytes <= 0 {
		// Nothing to serialize: the wire hop is scheduled before the
		// sender's completion runs, the order a nonzero transfer that
		// finishes both serializations at once would have.
		x.remaining = 0
		f.env.After(f.cfg.WireLatency, x.postFn)
		if onSent != nil {
			onSent()
		}
		return
	}
	x.remaining = 2
	x.onSent = onSent
	p.tx.StartFunc(m.WireBytes, x.txFn)
	dst.rx.StartFunc(m.WireBytes, x.rxFn)
}
