package core

import (
	"testing"

	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/rdma"
)

// aamsRound drives one AAMS round trip on an instance: a split receive
// of a header+payload message, an assemble send of header+payload back
// to the peer, one engine job encoding the payload into dst, and one
// modeled job sized 2048 bytes out, run to quiescence. Both encodes are
// bound once, as the middle tier binds its own per request context.
type aamsRound struct {
	r                *rig
	inst             *Instance
	local, remote    *rdma.QP
	msg              []byte
	hbuf             *HostBuf
	dbuf, dst        *device.Buffer
	enc              *lz4.Encoder
	encodeFn, sizeFn func() float64
}

func newAAMSRound(t testing.TB) *aamsRound {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	local, remote := r.connect(t, 0)
	remote.OnRecv = func(*rdma.Message) {}
	a := &aamsRound{r: r, inst: inst, local: local, remote: remote,
		msg: payloadFor(1, 64+4096), hbuf: r.dev.HostAlloc(64)}
	a.dbuf, _ = r.dev.DevAlloc(4096)
	a.dst, _ = r.dev.DevAlloc(lz4.CompressBound(4096))
	a.enc = lz4.NewEncoder(4096)
	a.encodeFn = func() float64 {
		n, err := a.enc.Compress(a.dst.Bytes(), a.dbuf.Bytes(), lz4.LevelDefault)
		if err != nil {
			t.Fatal(err)
		}
		return float64(n)
	}
	a.sizeFn = func() float64 { return 2048 }
	return a
}

func (a *aamsRound) run() {
	a.inst.DevMixedRecv(a.local, a.hbuf, 64, a.dbuf, a.dbuf.Size())
	a.remote.Send(a.msg)
	a.inst.DevMixedSend(a.local, a.hbuf, 64, a.dbuf, 4096)
	a.inst.DevFunc(4096, a.encodeFn)
	a.r.env.Run(0)
	// The modeled job runs alone, as a middle-tier write's does: a job
	// queued behind another for the engine slot waits on a fresh event.
	a.inst.DevFunc(4096, a.sizeFn)
	a.r.env.Run(0)
}

// aamsRoundAllocs is the round trip's allocation budget. None of it is
// AAMS bookkeeping: the split, assemble and devfunc ops, the DMA ops
// and the recv queues are pooled, and completions come from a slab.
// What remains is data that outlives the verbs:
//   - 1 assembled message buffer: the receiver keeps its bytes;
//   - 2 delivered *rdma.Message records, one per direction.
//
// The bound encode writes straight into the destination buffer.
const aamsRoundAllocs = 3

// TestAAMSRoundTripAllocs pins the AAMS verbs' steady-state allocations
// to the records that outlive them.
func TestAAMSRoundTripAllocs(t *testing.T) {
	a := newAAMSRound(t)
	for i := 0; i < 256; i++ { // warm every pool, slab and queue
		a.run()
	}
	if got := testing.AllocsPerRun(200, a.run); got > aamsRoundAllocs {
		t.Fatalf("AAMS recv+send+devfunc round = %g allocs, want <= %d", got, aamsRoundAllocs)
	}
}

func BenchmarkAAMSRoundTrip(b *testing.B) {
	a := newAAMSRound(b)
	for i := 0; i < 256; i++ {
		a.run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.run()
	}
}
