package rdma

import (
	"testing"

	"github.com/disagg/smartds/internal/sim"
)

// TestSendAckAllocs pins the steady-state transport path: once the
// wire, send-record and fabric pools are warm, a send that is
// delivered and acked allocates only the *Message handed to OnRecv
// (the upper layers keep it), and nothing at all without a receiver.
// The completion Event comes from the Env's slab, which amortizes to
// well under one allocation per send.
func TestSendAckAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		onRecv bool
		max    float64
	}{{"with OnRecv", true, 1}, {"without OnRecv", false, 0}} {
		e := sim.NewEnv()
		sa, sb, _ := pairStacks(e, 12.5e9)
		qa, qb := connectedQPs(sa, sb)
		delivered := 0
		if tc.onRecv {
			qb.OnRecv = func(*Message) { delivered++ }
		}
		payload := make([]byte, 4096)
		cycle := func() {
			qa.Send(payload)
			e.Run(0)
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs > tc.max {
			t.Errorf("%s: send/deliver/ack allocates %.2f objects per message, want <= %g", tc.name, allocs, tc.max)
		}
		if tc.onRecv && delivered != 64+1001 {
			t.Errorf("%s: delivered %d messages, want %d", tc.name, delivered, 64+1001)
		}
		if qa.Unacked() != 0 {
			t.Errorf("%s: %d sends still unacked", tc.name, qa.Unacked())
		}
	}
}

// BenchmarkRDMASendAck measures one reliable message on a connected
// pair in steady state: post, serialize, deliver, cumulative ack.
func BenchmarkRDMASendAck(b *testing.B) {
	e := sim.NewEnv()
	sa, sb, _ := pairStacks(e, 12.5e9)
	qa, qb := connectedQPs(sa, sb)
	qb.OnRecv = func(*Message) {}
	payload := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		qa.Send(payload)
		e.Run(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qa.Send(payload)
		e.Run(0)
	}
}
