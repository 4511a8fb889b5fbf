package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/disagg/smartds/internal/device"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
)

// payloadFor generates message id's deterministic payload.
func payloadFor(id, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(id*31 + i*7)
	}
	return out
}

// TestPipelinedDescriptorsManyMessages drives hundreds of back-to-back
// messages through a small descriptor pool, asserting FIFO descriptor
// pairing and exact byte placement for every message.
func TestPipelinedDescriptorsManyMessages(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	local, remote := r.connect(t, 0)

	const (
		depth   = 8
		nMsgs   = 300
		hdrSize = 16
	)
	hbufs := make([]*HostBuf, depth)
	dbufs := make([]*device.Buffer, depth)
	for i := 0; i < depth; i++ {
		hbufs[i] = r.dev.HostAlloc(hdrSize)
		db, err := r.dev.DevAlloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		dbufs[i] = db
	}

	received := 0
	var mismatch error
	var post func(i int)
	post = func(i int) {
		comp := inst.DevMixedRecv(local, hbufs[i], hdrSize, dbufs[i], dbufs[i].Size())
		comp.Event().OnTrigger(func(v interface{}) {
			res := v.(*Completion).Result()
			if res.Err != nil {
				mismatch = res.Err
				return
			}
			id := int(hbufs[i].Bytes()[0]) | int(hbufs[i].Bytes()[1])<<8
			want := payloadFor(id, res.Size)
			if !bytes.Equal(dbufs[i].Bytes()[:res.Size], want) {
				mismatch = fmt.Errorf("message %d payload corrupted", id)
				return
			}
			received++
			if received+depth <= nMsgs {
				post(i)
			}
		})
	}
	for i := 0; i < depth; i++ {
		post(i)
	}

	gen := rng.New(5)
	r.env.Go("client", func(p *sim.Proc) {
		for id := 0; id < nMsgs; id++ {
			size := 64 + gen.Intn(1500)
			hdr := make([]byte, hdrSize)
			hdr[0] = byte(id)
			hdr[1] = byte(id >> 8)
			msg := append(hdr, payloadFor(id, size)...)
			p.Wait(remote.Send(msg))
		}
	})
	r.env.Run(0)

	if mismatch != nil {
		t.Fatal(mismatch)
	}
	if received != nMsgs {
		t.Fatalf("received %d of %d messages", received, nMsgs)
	}
}

// TestDevFuncConcurrentJobs: many concurrent dev_func jobs on one
// engine queue FIFO, run their encodes in posting order, and never
// corrupt each other's outputs.
func TestDevFuncConcurrentJobs(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)

	const n = 24
	srcs := make([]*device.Buffer, n)
	dsts := make([]*device.Buffer, n)
	origs := make([][]byte, n)
	gen := rng.New(9)
	for i := 0; i < n; i++ {
		src, err := r.dev.DevAlloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := r.dev.DevAlloc(lz4.CompressBound(4096) + lz4.FrameHeaderSize)
		if err != nil {
			t.Fatal(err)
		}
		b := src.Bytes()
		for k := range b {
			b[k] = byte((i + k/16) % 13)
		}
		if gen.Float64() < 0.3 {
			gen.Bytes(b[:1024])
		}
		srcs[i], dsts[i] = src, dst
		origs[i] = append([]byte(nil), b...)
	}

	results := make([]Result, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		encode := func() float64 {
			order = append(order, i)
			c, err := lz4.Compress(dsts[i].Bytes(), srcs[i].Bytes(), lz4.LevelDefault)
			if err != nil {
				t.Fatal(err)
			}
			return float64(c)
		}
		r.env.Go("caller", func(p *sim.Proc) {
			results[i] = Poll(p, inst.DevFunc(4096, encode))
		})
	}
	r.env.Run(0)
	for i, got := range order {
		if got != i {
			t.Fatalf("encodes ran in order %v, want posting order", order)
		}
	}
	if len(order) != n {
		t.Fatalf("%d encodes ran for %d jobs", len(order), n)
	}

	for i := 0; i < n; i++ {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
		back, err := lz4.DecompressToBuf(dsts[i].Bytes()[:results[i].Size], 4096)
		if err != nil {
			t.Fatalf("job %d: corrupt engine output: %v", i, err)
		}
		if !bytes.Equal(back, origs[i]) {
			t.Fatalf("job %d: engine output belongs to another job", i)
		}
	}
	// The engine processed every byte exactly once.
	if got := inst.Engine().Processed(); got != n*4096 {
		t.Fatalf("engine processed %g bytes, want %d", got, n*4096)
	}
}

// TestMultiPortConcurrentTraffic exercises two instances concurrently,
// each with its own client, verifying isolation of descriptor state.
func TestMultiPortConcurrentTraffic(t *testing.T) {
	r := newRig(t, 2)
	counts := [2]int{}
	for pi := 0; pi < 2; pi++ {
		pi := pi
		inst, _ := r.dev.OpenRoCEInstance(pi)
		local := inst.CreateQP()
		remote := r.peer.CreateQP()
		rdma.Connect(local, remote)

		hbuf := r.dev.HostAlloc(64)
		dbuf, _ := r.dev.DevAlloc(4096)
		var post func()
		post = func() {
			comp := inst.DevMixedRecv(local, hbuf, 64, dbuf, 4096)
			comp.Event().OnTrigger(func(v interface{}) {
				if v.(*Completion).Result().Err == nil {
					counts[pi]++
					if counts[pi] < 20 {
						post()
					}
				}
			})
		}
		post()
		r.env.Go("client", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				p.Wait(remote.SendSized(nil, 64+1024))
			}
		})
	}
	r.env.Run(0)
	if counts[0] != 20 || counts[1] != 20 {
		t.Fatalf("per-port deliveries: %v", counts)
	}
}
