package rdma

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
)

// lossSweepGolden pins the transport's exact behaviour under loss: for
// each (loss, seed) cell, the SHA-256 of both directions' delivery
// order, every send's completion time and status, and each stack's
// Retransmits and Resets. Any change to event order, retry accounting
// or record lifetimes shows up as a different hash.
var lossSweepGolden = map[string]string{
	"loss=0.00/seed=1": "3bd096aedb87f6547046ff93d801b72bc608cf5fc0a7a03fbf0155574c926340",
	"loss=0.00/seed=2": "21daeea3332d820a5f9acda387b3a5caf69bec709a068757d17f77a25d840181",
	"loss=0.00/seed=3": "e1284e80582afac96fb2c93579a5e509ad0d8cef39b44bae4d6076fd29e6f201",
	"loss=0.05/seed=1": "85ee63b804a54a77e422e21903bd1591c6e742788d6c7b363ee3454b80b31e2c",
	"loss=0.05/seed=2": "5a632988c247a1f447bdf65340f291cd6a73432e0f35e9dd145ef354f999f193",
	"loss=0.05/seed=3": "8a312e0adf4688f845b6f788b37ca8912323f4d4ef5f265d11ca1d9fc0814115",
	"loss=0.10/seed=1": "fc2123089ad14e76965462a3792f2cfd3e980e971542a8ef271533b6abb9bb8e",
	"loss=0.10/seed=2": "bc74db35bb5f23143bcd4dd1c13d58e8d5f8b81f47b90db1d581eeec7461b6ec",
	"loss=0.10/seed=3": "6454998c16eea29865065072fa32c8f110e5ed3dec426a8c030c22c32c582d9f",
	"loss=0.15/seed=1": "dc3559ae540bfffe6560f000130b95ed37bf4924390e479e82b33015aa9997e6",
	"loss=0.15/seed=2": "4ecd571153f7c20d80785070c92f9d6b78e113620354e99371e2e63d74ee62ca",
	"loss=0.15/seed=3": "02eb598287f390e486c2267a2e33a781e6edf0c8904d48d22b02d36b1c57d7bb",
	"loss=0.20/seed=1": "a08d701ca7dca2f1d8f64b92ac2251aadedda39821cfff965b44c00a299d93f5",
	"loss=0.20/seed=2": "28aabd7b9f65016a8ef8b7ced4203ba64f9c05af700b674dd378019e815fd76c",
	"loss=0.20/seed=3": "1bdf3126c225df4c9d9aac3786721a41d1b841e7b33e941acb6556ef2ac7fd20",
}

// runLossSweepCell drives bidirectional windowed traffic between two
// stacks over a fabric that drops data and acks alike with probability
// loss. The default retry budget is small enough that the lossier cells
// exhaust it, so the broken-QP and Reconnect paths run too: a sender
// that sees its QP broken reconnects the pair and carries on.
func runLossSweepCell(loss float64, seed uint64, h io.Writer) {
	e := sim.NewEnv()
	f := netsim.NewFabric(e, netsim.Config{WireLatency: 1e-6, MTU: 4096, PerPktOverhead: 80})
	cfg := Config{RetransmitTimeout: 50e-6, MaxRetries: 5}
	sa := NewStack(e, f.NewPort("A", 12.5e9), cfg)
	sb := NewStack(e, f.NewPort("B", 12.5e9), cfg)
	qa, qb := connectedQPs(sa, sb)
	drop := rng.New(seed)
	f.SetLossFn(func(*netsim.Message) bool { return drop.Float64() < loss })

	fmt.Fprintf(h, "cell loss=%g seed=%d\n", loss, seed)
	record := func(tag string) func(m *Message) {
		return func(m *Message) {
			fmt.Fprintf(h, "%s recv seq=%d size=%g data=%x t=%x\n",
				tag, m.Seq, m.Size, m.Data, math.Float64bits(e.Now()))
		}
	}
	qa.OnRecv = record("A")
	qb.OnRecv = record("B")

	sender := func(tag string, qp, peer *QP, r *rng.Source) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			const n, window = 120, 12
			var pending []*sim.Event
			for i := 0; i < n; i++ {
				size := float64(64 + r.Intn(32<<10))
				var data []byte
				if i%3 == 0 {
					data = []byte{byte(i), byte(i >> 8), byte(seed)}
				}
				i := i
				ev := qp.SendSized(data, size)
				ev.OnTrigger(func(v interface{}) {
					fmt.Fprintf(h, "%s done %d t=%x status=%v\n", tag, i, math.Float64bits(e.Now()), v)
				})
				pending = append(pending, ev)
				if len(pending) == window {
					if v := p.Wait(pending[0]); v == ErrRetriesExhausted && qp.Broken() {
						Reconnect(qp, peer)
					}
					pending = pending[1:]
				}
				if r.Float64() < 0.3 {
					p.Sleep(r.Exp(5e-6))
				}
			}
			for _, ev := range pending {
				p.Wait(ev)
			}
		}
	}
	e.Go("A.tx", sender("A", qa, qb, rng.New(seed+100)))
	e.Go("B.tx", sender("B", qb, qa, rng.New(seed+200)))
	e.Run(0)
	for _, s := range []*Stack{sa, sb} {
		st := s.Stats()
		fmt.Fprintf(h, "stack %s retransmits=%d resets=%d unacked=%d broken=%d end=%x\n",
			s.Addr(), st.Retransmits, st.Resets, st.Unacked, st.Broken, math.Float64bits(e.Now()))
	}
}

// TestLossSweepGolden replays the loss sweep (0–20% loss × 3 seeds)
// and compares each cell's hash against lossSweepGolden.
func TestLossSweepGolden(t *testing.T) {
	for _, loss := range []float64{0, 0.05, 0.10, 0.15, 0.20} {
		for _, seed := range []uint64{1, 2, 3} {
			key := fmt.Sprintf("loss=%.2f/seed=%d", loss, seed)
			h := sha256.New()
			runLossSweepCell(loss, seed, h)
			got := hex.EncodeToString(h.Sum(nil))
			if want := lossSweepGolden[key]; got != want {
				t.Errorf("%s: hash %s, want %s", key, got, want)
			}
		}
	}
}
