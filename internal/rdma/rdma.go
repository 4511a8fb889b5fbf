// Package rdma implements a RoCE-like reliable message transport on
// top of the netsim fabric: queue pairs, SEND verbs with completion
// events, cumulative ACKs, and go-back-N retransmission.
//
// SmartDS extends an FPGA RoCE stack (StRoM-derived) with its split/
// assemble modules; this package is the unmodified transport those
// modules plug into. Reliability is modeled at message granularity —
// one simulated "message" is one RDMA message of up to several MB, with
// per-packet framing charged via netsim.Fabric.WireSize — which keeps
// event counts tractable while preserving ordering, loss recovery, and
// flow behavior.
package rdma

import (
	"fmt"

	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// QPID names a queue pair globally: fabric address plus QP number.
type QPID struct {
	Addr netsim.Addr
	QPN  int
}

func (id QPID) String() string { return fmt.Sprintf("%s/qp%d", id.Addr, id.QPN) }

// Config sets transport parameters.
type Config struct {
	// AckBytes is the wire size of an ACK.
	AckBytes float64
	// RetransmitTimeout is how long the sender waits for an ACK before
	// resending all unacknowledged messages.
	RetransmitTimeout float64
	// MaxRetries bounds retransmission attempts before the send
	// completes with an error.
	MaxRetries int
	// HeaderBytes is the transport header charged per message on the
	// wire in addition to payload framing.
	HeaderBytes float64
	// Trace, when set, records one span per reliable send (post to
	// cumulative ACK) and an instant per go-back-N retransmission on
	// the stack's own track. Nil disables tracing.
	Trace *trace.Tracer
}

// DefaultConfig returns datacenter RoCE-ish parameters.
func DefaultConfig() Config {
	return Config{
		AckBytes:          64,
		RetransmitTimeout: 500e-6,
		MaxRetries:        8,
		HeaderBytes:       32,
	}
}

// Message is a delivered RDMA message.
type Message struct {
	From QPID
	Seq  uint64
	Data []byte  // real payload bytes
	Size float64 // modeled payload size (== len(Data) when Data != nil)
}

// ErrRetriesExhausted reports a send that could not be delivered.
var ErrRetriesExhausted = fmt.Errorf("rdma: retries exhausted")

// ErrDisconnected reports sends aborted by a QP reset (Reconnect).
var ErrDisconnected = fmt.Errorf("rdma: queue pair reset")

// Stack is one RoCE instance bound to a fabric port.
type Stack struct {
	env     *sim.Env
	port    *netsim.Port
	cfg     Config
	qps     map[int]*QP
	next    int
	spanSeq uint64 // send span correlation ids, unique per stack
	resets  uint64 // QP resets performed on this stack (telemetry)

	// freeWires pools fabric datagrams; see wire.
	freeWires []*wire

	// traceName is the stack's trace track ("rdma.<addr>"), built once
	// so sampled spans format nothing.
	traceName string
}

// packet is the on-fabric representation.
type packet struct {
	kind   byte // 'D' data, 'A' ack
	src    QPID
	dstQPN int
	seq    uint64 // data: message seq; ack: cumulative next-expected
	epoch  uint32 // connection incarnation; stale-epoch packets are ignored
	data   []byte
	size   float64
}

// wire is one datagram on the fabric: the netsim message and the
// packet it carries live side by side, so a transmission allocates
// neither. The sending stack draws a wire from its own pool and the
// receiving stack returns it to its pool once the packet is
// dispatched; every data message draws an ack, so draws and returns
// balance per stack. A wire the fabric drops goes to the garbage
// collector, and its stack allocates a fresh one on the next draw.
type wire struct {
	msg netsim.Message
	pkt packet
}

// newWire draws a wire, fills it with pkt addressed to dst, and returns
// its fabric message.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (s *Stack) newWire(dst netsim.Addr, wireBytes float64, pkt packet) *netsim.Message {
	var w *wire
	if n := len(s.freeWires); n > 0 {
		w = s.freeWires[n-1]
		s.freeWires[n-1] = nil
		s.freeWires = s.freeWires[:n-1]
	} else {
		//detcheck:hotalloc pool miss: warmup and dropped wires only, receivers return the rest
		w = &wire{}
	}
	w.pkt = pkt
	w.msg = netsim.Message{Dst: dst, WireBytes: wireBytes, Payload: w}
	return &w.msg
}

// NewStack binds a transport instance to a port. The stack takes over
// the port's receive handler.
func NewStack(env *sim.Env, port *netsim.Port, cfg Config) *Stack {
	def := DefaultConfig()
	if cfg.AckBytes <= 0 {
		cfg.AckBytes = def.AckBytes
	}
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = def.RetransmitTimeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = def.MaxRetries
	}
	if cfg.HeaderBytes < 0 {
		cfg.HeaderBytes = def.HeaderBytes
	}
	s := &Stack{env: env, port: port, cfg: cfg, qps: make(map[int]*QP), next: 1,
		traceName: "rdma." + string(port.Addr())}
	port.SetHandler(s.receive)
	return s
}

// Port returns the underlying fabric port.
func (s *Stack) Port() *netsim.Port { return s.port }

// Addr returns the stack's fabric address.
func (s *Stack) Addr() netsim.Addr { return s.port.Addr() }

// Stats is the aggregate transport health of one stack: how many queue
// pairs exist, how hard go-back-N is working, and how much is still in
// flight. The telemetry layer samples it per middle-tier / storage NIC.
type Stats struct {
	QPs         int    // allocated queue pairs
	Retransmits uint64 // cumulative go-back-N resends across all QPs
	Resets      uint64 // QP resets (Reconnect incarnations) on this stack
	Broken      int    // QPs currently wedged awaiting Reconnect
	Unacked     int    // sends posted but not yet acked (in flight)
}

// Stats aggregates transport counters across the stack's queue pairs.
// The map walk accumulates only commutative integer sums, so iteration
// order cannot leak into the result.
func (s *Stack) Stats() Stats {
	st := Stats{QPs: len(s.qps), Resets: s.resets}
	for _, qp := range s.qps {
		st.Retransmits += qp.retransmits
		st.Unacked += len(qp.unacked)
		if qp.broken {
			st.Broken++
		}
	}
	return st
}

// QP is one side of a reliable connection.
type QP struct {
	stack  *Stack
	qpn    int
	remote QPID

	sendSeq  uint64 // next sequence to assign
	recvNext uint64 // next expected incoming sequence
	epoch    uint32 // bumped by Reconnect; guards against stale in-flight packets

	unacked []*pendingSend
	// acked is onAck's scratch list of sends an ack completes.
	acked []*pendingSend
	// freeSends pools send records; see pendingSend.
	freeSends []*pendingSend

	// broken marks a QP whose go-back-N window has a permanent gap: a
	// send exhausted its retries, so the receiver can never advance past
	// the missing sequence. Every outstanding and subsequent send fails
	// until Reconnect resets the pair.
	broken bool
	// timeouts counts retransmission timeouts since the window last
	// advanced: the retry budget is the QP's, because every go-back-N
	// timeout resends the whole window behind the timed message.
	timeouts int

	// retransmits counts go-back-N resends (loss-sweep tests bound it).
	retransmits uint64

	// OnRecv receives in-order messages. The upper layer (an AAMS
	// instance, a storage server loop) installs it; nil drops.
	OnRecv func(*Message)
}

// pendingSend is one posted send until it resolves. Records are pooled
// per QP, and a record goes back to the pool only when nothing can call
// into it any more: it is resolved, none of its transmissions is still
// serializing (each calls armFn when it leaves the port), and none of
// its retransmit timers is still armed. Go-back-N can arm a second
// timer over a live one, so a timer may fire after the ack resolved
// the send; counting keeps that stale timer pointed at its own record.
type pendingSend struct {
	seq      uint64
	data     []byte
	size     float64
	retries  int
	done     *sim.Event
	timer    sim.Timer
	resolved bool    // acked or failed
	span     uint64  // trace span id (0 when tracing is off)
	postedAt float64 // post time, for the wire/qwait split on sampled sends

	sending int // transmissions still serializing
	armed   int // retransmit timers neither fired nor cancelled

	// armFn and timeoutFn are bound once per record; retransmissions
	// and reuses share them instead of minting fresh closures.
	armFn     func()
	timeoutFn func()
}

// cancelTimer cancels the record's newest timer, if it is still armed.
func (ps *pendingSend) cancelTimer() {
	if ps.timer.Cancel() {
		ps.armed--
	}
	ps.timer = sim.Timer{}
}

// newSend draws a send record from the pool.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) newSend() *pendingSend {
	if n := len(qp.freeSends); n > 0 {
		ps := qp.freeSends[n-1]
		qp.freeSends[n-1] = nil
		qp.freeSends = qp.freeSends[:n-1]
		return ps
	}
	//detcheck:hotalloc pool miss: warmup-only, bounded by the peak send window
	ps := &pendingSend{}
	//detcheck:hotalloc bound once per pooled record, reused by every send it serves
	ps.armFn = func() { qp.onSent(ps) }
	//detcheck:hotalloc bound once per pooled record, reused by every send it serves
	ps.timeoutFn = func() { qp.onTimeout(ps) }
	return ps
}

// release returns a resolved record to the pool once no transmission
// or timer can call into it; otherwise the last of those does.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) release(ps *pendingSend) {
	if !ps.resolved || ps.sending > 0 || ps.armed > 0 {
		return
	}
	*ps = pendingSend{armFn: ps.armFn, timeoutFn: ps.timeoutFn}
	//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
	qp.freeSends = append(qp.freeSends, ps)
}

// CreateQP allocates an unconnected QP.
func (s *Stack) CreateQP() *QP {
	qp := &QP{stack: s, qpn: s.next}
	s.qps[s.next] = qp
	s.next++
	return qp
}

// QP returns the stack's queue pair with the given number, or nil —
// Reconnect after a fault needs to reach the peer QP object by the
// identity its partner recorded at Connect time.
func (s *Stack) QP(qpn int) *QP { return s.qps[qpn] }

// ID returns the QP's global identity.
func (qp *QP) ID() QPID { return QPID{Addr: qp.stack.Addr(), QPN: qp.qpn} }

// Remote returns the connected peer's identity.
func (qp *QP) Remote() QPID { return qp.remote }

// Connect pairs two QPs (the out-of-band connection setup real RDMA
// does through a CM exchange).
func Connect(a, b *QP) {
	a.remote = b.ID()
	b.remote = a.ID()
}

// Reconnect resets both ends of a connected pair after a failure — the
// CM-level teardown and re-establish real RoCE performs. Outstanding
// sends on both sides fail with ErrDisconnected, sequence numbers
// restart, and the broken flag clears. Both ends move to a common new
// epoch so stale in-flight packets from the old incarnation (data or
// acks still crossing the fabric) cannot corrupt the fresh sequence
// space. The QP objects keep their numbers, so existing references
// stay valid.
func Reconnect(a, b *QP) {
	epoch := a.epoch
	if b.epoch > epoch {
		epoch = b.epoch
	}
	epoch++
	a.reset(epoch)
	b.reset(epoch)
	a.remote = b.ID()
	b.remote = a.ID()
}

// reset aborts outstanding sends and restarts the QP at a new epoch.
func (qp *QP) reset(epoch uint32) {
	qp.stack.resets++
	failed := qp.unacked
	qp.unacked = nil
	qp.sendSeq = 0
	qp.recvNext = 0
	qp.broken = false
	qp.timeouts = 0
	qp.epoch = epoch
	for _, ps := range failed {
		if ps.resolved {
			continue
		}
		ps.resolved = true
		ps.cancelTimer()
		qp.endSendSpan(ps)
		ps.done.Trigger(ErrDisconnected)
		qp.release(ps)
	}
}

// Broken reports whether the QP needs a Reconnect before it can carry
// traffic again.
func (qp *QP) Broken() bool { return qp.broken }

// Retransmits returns the cumulative go-back-N resend count.
func (qp *QP) Retransmits() uint64 { return qp.retransmits }

// Send posts a reliable message carrying real data bytes. The returned
// event fires with nil on ACK or an error after retry exhaustion.
func (qp *QP) Send(data []byte) *sim.Event {
	return qp.send(data, float64(len(data)))
}

// SendSized posts a message with an explicit modeled size and optional
// real bytes (for experiments that move modeled-only traffic).
func (qp *QP) SendSized(data []byte, size float64) *sim.Event {
	return qp.send(data, size)
}

//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) send(data []byte, size float64) *sim.Event {
	if qp.remote.Addr == "" {
		qp.panicUnconnected()
	}
	done := qp.stack.env.NewEvent()
	if qp.broken {
		// The window has a permanent gap; nothing sent now can ever be
		// delivered in order. Fail fast instead of burning retries.
		done.Trigger(ErrRetriesExhausted)
		return done
	}
	ps := qp.newSend()
	ps.seq = qp.sendSeq
	ps.data = data
	ps.size = size
	ps.done = done
	qp.sendSeq++
	//detcheck:hotalloc window growth: capacity is retained as acks trim the window
	qp.unacked = append(qp.unacked, ps)
	if tr := qp.stack.cfg.Trace; tr != nil {
		qp.beginSendSpan(tr, ps)
	}
	qp.transmit(ps)
	return done
}

//cold:programming error; the run is already dead, so formatting is free
func (qp *QP) panicUnconnected() {
	panic("rdma: Send on unconnected QP " + qp.ID().String())
}

// beginSendSpan opens a send's trace span if head sampling keeps it.
// Unsampled sends leave ps.span zero so the End side skips too. At
// full rate ForRequest is the identity.
//
//cold:tracing is off on the measured path; sampled sends pay for their spans
func (qp *QP) beginSendSpan(tr *trace.Tracer, ps *pendingSend) {
	qp.stack.spanSeq++
	if st := tr.ForRequest(qp.stack.spanSeq); st != nil {
		ps.span = qp.stack.spanSeq
		ps.postedAt = qp.stack.env.Now()
		st.Begin(ps.postedAt, qp.stack.traceName, "send", ps.span)
	}
}

// endSendSpan closes a pending send's trace span when it resolves and
// splits its duration into wire time vs queue wait: the unloaded
// serialization + propagation time is service, and whatever the send
// actually took beyond that — queueing behind other transfers,
// retransmits, ack turnaround — is wait. The two children tile the
// send span exactly, so critical-path blame can tell "the link was
// busy" apart from "the message was big".
//
//cold:tracing is off on the measured path; sampled sends pay for their spans
func (qp *QP) endSendSpan(ps *pendingSend) {
	if ps.span == 0 {
		return
	}
	s := qp.stack
	now := s.env.Now()
	tr := s.cfg.Trace
	tr.End(now, s.traceName, "send", ps.span)
	dur := now - ps.postedAt
	if dur <= 0 {
		return
	}
	wire := s.port.WireTime(fabricSize(s, ps.size))
	if wire > dur {
		wire = dur
	}
	tr.Span(ps.postedAt, ps.postedAt+wire, s.traceName, "send.wire",
		ps.span, 0, s.traceName, "send", trace.KindService, "")
	if dur > wire {
		tr.Span(ps.postedAt+wire, now, s.traceName, "send.qwait",
			ps.span, 0, s.traceName, "send", trace.KindWait, "")
	}
}

// transmit puts one message on the fabric. The retransmission timer is
// armed only once serialization completes — the NIC cannot time out a
// message that has not finished leaving the port yet.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) transmit(ps *pendingSend) {
	s := qp.stack
	ps.cancelTimer()
	ps.sending++
	s.port.Send(s.newWire(qp.remote.Addr, fabricSize(s, ps.size), packet{
		kind:   'D',
		src:    qp.ID(),
		dstQPN: qp.remote.QPN,
		seq:    ps.seq,
		epoch:  qp.epoch,
		data:   ps.data,
		size:   ps.size,
	}), ps.armFn)
}

// onSent runs when one transmission of ps has left the port: it arms
// the retransmit timer unless the send already resolved. Under
// go-back-N an earlier copy may still hold an armed timer; the new one
// takes over the handle and the old one fires on its own.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) onSent(ps *pendingSend) {
	ps.sending--
	if ps.resolved {
		qp.release(ps)
		return
	}
	ps.timer = qp.stack.env.After(qp.stack.cfg.RetransmitTimeout, ps.timeoutFn)
	ps.armed++
}

// fabricSize converts a payload size into on-wire bytes: transport
// header plus per-packet framing.
func fabricSize(s *Stack, payload float64) float64 {
	return s.port.Fabric().WireSize(payload + s.cfg.HeaderBytes)
}

// onTimeout handles a retransmission timeout for one message: go-back-N
// resends it and every later unacked message. Once MaxRetries timeouts
// in a row have passed without the window advancing, the whole window
// fails and the QP turns broken: go-back-N cannot skip the lost
// sequence, so no later send could ever be delivered (previously such
// sends would silently hang the peer).
func (qp *QP) onTimeout(timed *pendingSend) {
	if Debug != nil {
		Debug("timeout", qp.ID(), timed.seq)
	}
	timed.timer = sim.Timer{}
	timed.armed--
	if timed.resolved {
		qp.release(timed)
		return
	}
	idx := -1
	for i, ps := range qp.unacked {
		if ps == timed {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	qp.timeouts++
	if qp.timeouts > qp.stack.cfg.MaxRetries {
		qp.broken = true
		failed := qp.unacked
		qp.unacked = nil
		for _, ps := range failed {
			ps.resolved = true
			ps.cancelTimer()
			qp.endSendSpan(ps)
			ps.done.Trigger(ErrRetriesExhausted)
			qp.release(ps)
		}
		return
	}
	tr := qp.stack.cfg.Trace
	for _, ps := range qp.unacked[idx:] {
		ps.retries++
		qp.retransmits++
		if tr != nil {
			qp.traceRetransmit(tr, ps)
		}
		qp.transmit(ps)
	}
}

// traceRetransmit records one retransmission.
//
//cold:loss recovery, off the steady-state path; traced runs pay for their records
func (qp *QP) traceRetransmit(tr *trace.Tracer, ps *pendingSend) {
	tr.Emit(qp.stack.env.Now(), qp.stack.traceName, "retransmit", fmt.Sprintf("seq %d retry %d", ps.seq, ps.retries))
}

// receive dispatches fabric messages to QPs, then returns the wire to
// this stack's pool.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (s *Stack) receive(m *netsim.Message) {
	w, ok := m.Payload.(*wire)
	if !ok {
		return // foreign traffic
	}
	pkt := &w.pkt
	if qp, ok := s.qps[pkt.dstQPN]; ok {
		switch pkt.kind {
		case 'D':
			qp.onData(pkt)
		case 'A':
			if pkt.epoch == qp.epoch {
				qp.onAck(pkt.seq)
			}
		}
	}
	w.pkt.data = nil
	//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
	s.freeWires = append(s.freeWires, w)
}

// onData handles an incoming data message: deliver in order, drop
// out-of-order (go-back-N), always re-ack cumulatively. Packets from an
// older connection epoch are dropped without an ack — after a Reconnect
// a stale in-flight data message must not masquerade as a fresh
// sequence number.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) onData(pkt *packet) {
	if Debug != nil {
		Debug("data", qp.ID(), pkt.seq)
	}
	if pkt.epoch != qp.epoch {
		return
	}
	if pkt.seq == qp.recvNext {
		qp.recvNext++
		if qp.OnRecv != nil {
			//detcheck:hotalloc the delivered message outlives the packet: core queues it, storage captures it
			qp.OnRecv(&Message{From: pkt.src, Seq: pkt.seq, Data: pkt.data, Size: pkt.size})
		}
	}
	// Cumulative ACK for everything below recvNext (covers duplicates
	// and triggers fast resync after gaps).
	qp.sendAck()
}

//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) sendAck() {
	s := qp.stack
	s.port.Send(s.newWire(qp.remote.Addr, s.cfg.AckBytes, packet{
		kind:   'A',
		src:    qp.ID(),
		dstQPN: qp.remote.QPN,
		seq:    qp.recvNext,
		epoch:  qp.epoch,
	}), nil)
}

// onAck completes every pending send below the cumulative mark — a
// prefix of the window, since unacked is in sequence order.
//
//hot:per-message transport path, pinned by TestSendAckAllocs
func (qp *QP) onAck(next uint64) {
	if Debug != nil {
		Debug("ack", qp.ID(), next)
	}
	n := 0
	for n < len(qp.unacked) && qp.unacked[n].seq < next {
		n++
	}
	if n == 0 {
		return
	}
	qp.timeouts = 0
	//detcheck:hotalloc scratch growth: capacity is retained in qp.acked across acks
	acked := append(qp.acked[:0], qp.unacked[:n]...)
	kept := copy(qp.unacked, qp.unacked[n:])
	clear(qp.unacked[kept:])
	qp.unacked = qp.unacked[:kept]
	for _, ps := range acked {
		ps.resolved = true
		ps.cancelTimer()
	}
	for i, ps := range acked {
		qp.endSendSpan(ps)
		ps.done.Trigger(nil)
		qp.release(ps)
		acked[i] = nil
	}
	qp.acked = acked[:0]
}

// Unacked reports the sender's outstanding message count (for tests).
func (qp *QP) Unacked() int { return len(qp.unacked) }
