package netsim

import (
	"testing"

	"github.com/disagg/smartds/internal/sim"
)

// TestPortSendZeroAllocs pins the fabric path: once the transfer and
// PS-link job pools are warm, a send — TX and RX serialization, the
// wire hop, in-order release and the sender's completion callback —
// allocates nothing.
func TestPortSendZeroAllocs(t *testing.T) {
	e := sim.NewEnv()
	_, a, b := newPair(e, 1e9)
	delivered, sent := 0, 0
	b.SetHandler(func(*Message) { delivered++ })
	onSent := func() { sent++ }
	m := &Message{Dst: "b", WireBytes: 4096}
	cycle := func() {
		a.Send(m, onSent)
		e.Run(0)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("Port.Send allocates %.2f objects per message, want 0", allocs)
	}
	if delivered != 64+1001 || sent != delivered {
		t.Fatalf("delivered %d, TX completions %d, want %d each", delivered, sent, 64+1001)
	}
}

// BenchmarkPortSend measures one message crossing the fabric in steady
// state: TX and RX serialization, the wire hop and delivery.
func BenchmarkPortSend(b *testing.B) {
	e := sim.NewEnv()
	_, a, dst := newPair(e, 12.5e9)
	dst.SetHandler(func(*Message) {})
	onSent := func() {}
	m := &Message{Dst: "b", WireBytes: 4096}
	for i := 0; i < 64; i++ {
		a.Send(m, onSent)
		e.Run(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(m, onSent)
		e.Run(0)
	}
}
