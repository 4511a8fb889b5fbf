package core

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
)

// rig is a SmartDS card plus a remote plain-RDMA peer for tests.
type rig struct {
	env     *sim.Env
	fabric  *netsim.Fabric
	hostMem *mem.System
	dev     *Device
	peer    *rdma.Stack
}

func newRig(t testing.TB, ports int) *rig {
	t.Helper()
	e := sim.NewEnv()
	f := netsim.NewFabric(e, netsim.DefaultConfig())
	hm := mem.New(e, mem.DefaultConfig())
	cfg := DefaultConfig(ports)
	cfg.HBM.Capacity = 64 << 20 // keep test arenas small
	dev := NewDevice(e, "sds", f, hm, cfg)
	peer := rdma.NewStack(e, f.NewPort("peer", 12.5e9), rdma.DefaultConfig())
	return &rig{env: e, fabric: f, hostMem: hm, dev: dev, peer: peer}
}

// connect builds a QP pair between instance idx and the peer stack.
func (r *rig) connect(t testing.TB, idx int) (*rdma.QP, *rdma.QP) {
	t.Helper()
	inst, err := r.dev.OpenRoCEInstance(idx)
	if err != nil {
		t.Fatal(err)
	}
	local := inst.CreateQP()
	remote := r.peer.CreateQP()
	rdma.Connect(local, remote)
	return local, remote
}

func TestOpenRoCEInstanceBounds(t *testing.T) {
	r := newRig(t, 2)
	if _, err := r.dev.OpenRoCEInstance(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.dev.OpenRoCEInstance(1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.dev.OpenRoCEInstance(2); err == nil {
		t.Fatal("out-of-range instance accepted")
	}
	if _, err := r.dev.OpenRoCEInstance(-1); err == nil {
		t.Fatal("negative instance accepted")
	}
}

func TestHostAllocAndDevAlloc(t *testing.T) {
	r := newRig(t, 1)
	hb := r.dev.HostAlloc(128)
	if len(hb.Bytes()) != 128 {
		t.Fatalf("host buf size %d", len(hb.Bytes()))
	}
	db, err := r.dev.DevAlloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 4096 {
		t.Fatalf("dev buf size %d", db.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero host_alloc did not panic")
		}
	}()
	r.dev.HostAlloc(0)
}

func TestSplitPlacesHeaderAndPayload(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	local, remote := r.connect(t, 0)
	_ = local

	const headerSize = 64
	hbuf := r.dev.HostAlloc(headerSize)
	dbuf, _ := r.dev.DevAlloc(8192)

	msg := make([]byte, headerSize+4096)
	for i := range msg {
		msg[i] = byte(i % 251)
	}

	var res Result
	r.env.Go("host", func(p *sim.Proc) {
		comp := inst.DevMixedRecv(qpOf(t, inst, local), hbuf, headerSize, dbuf, 8192)
		res = Poll(p, comp)
	})
	r.env.Go("client", func(p *sim.Proc) {
		p.Wait(remote.Send(msg))
	})
	r.env.Run(0)

	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Size != 4096 {
		t.Fatalf("payload size = %d, want 4096", res.Size)
	}
	if !bytes.Equal(hbuf.Bytes(), msg[:headerSize]) {
		t.Fatal("header bytes not placed in host buffer")
	}
	if !bytes.Equal(dbuf.Bytes()[:4096], msg[headerSize:]) {
		t.Fatal("payload bytes not placed in device buffer")
	}
}

// qpOf asserts the QP belongs to the instance (helper for readability).
func qpOf(t *testing.T, in *Instance, qp *rdma.QP) *rdma.QP {
	t.Helper()
	return qp
}

func TestSplitChargesPCIeOnlyForHeader(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	local, remote := r.connect(t, 0)

	const headerSize = 64
	const payload = 64 << 10
	hbuf := r.dev.HostAlloc(headerSize)
	dbuf, _ := r.dev.DevAlloc(payload)

	s0 := r.dev.PCIe().Snapshot()
	r.env.Go("host", func(p *sim.Proc) {
		comp := inst.DevMixedRecv(local, hbuf, headerSize, dbuf, payload)
		Poll(p, comp)
	})
	r.env.Go("client", func(p *sim.Proc) {
		p.Wait(remote.SendSized(nil, headerSize+payload))
	})
	r.env.Run(0)
	s1 := r.dev.PCIe().Snapshot()

	d2h := s1.D2HBytes - s0.D2HBytes
	if d2h > 3*headerSize {
		t.Fatalf("split moved %g bytes over PCIe, want only header+completion", d2h)
	}
	if got := s1.H2DBytes - s0.H2DBytes; got != 0 {
		t.Fatalf("split consumed H2D bandwidth: %g", got)
	}
}

func TestRecvBeforeMessageAndAfter(t *testing.T) {
	// Descriptor posted before the message and message before the
	// descriptor must both complete.
	for _, postFirst := range []bool{true, false} {
		r := newRig(t, 1)
		inst, _ := r.dev.OpenRoCEInstance(0)
		local, remote := r.connect(t, 0)
		hbuf := r.dev.HostAlloc(64)
		dbuf, _ := r.dev.DevAlloc(4096)
		var res Result
		delayPost := 0.0
		if !postFirst {
			delayPost = 1e-3
		}
		r.env.Go("host", func(p *sim.Proc) {
			p.Sleep(delayPost)
			res = Poll(p, inst.DevMixedRecv(local, hbuf, 64, dbuf, 4096))
		})
		r.env.Go("client", func(p *sim.Proc) {
			p.Wait(remote.SendSized(nil, 64+1024))
		})
		r.env.Run(0)
		if res.Err != nil || res.Size != 1024 {
			t.Fatalf("postFirst=%v: res=%+v", postFirst, res)
		}
	}
}

func TestSplitOverflowErrors(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	local, remote := r.connect(t, 0)
	hbuf := r.dev.HostAlloc(64)
	dbuf, _ := r.dev.DevAlloc(512) // too small for the payload
	var res Result
	r.env.Go("host", func(p *sim.Proc) {
		res = Poll(p, inst.DevMixedRecv(local, hbuf, 64, dbuf, 512))
	})
	r.env.Go("client", func(p *sim.Proc) {
		p.Wait(remote.SendSized(nil, 64+1024))
	})
	r.env.Run(0)
	if res.Err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestAssembleSendsSpanningMessage(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	local, remote := r.connect(t, 0)

	var got []byte
	remote.OnRecv = func(m *rdma.Message) { got = append([]byte(nil), m.Data...) }

	hbuf := r.dev.HostAlloc(16)
	copy(hbuf.Bytes(), "HEADERHEADERHEAD")
	dbuf, _ := r.dev.DevAlloc(32)
	copy(dbuf.Bytes(), "PAYLOADPAYLOADPAYLOADPAYLOADPAYL")

	var res Result
	r.env.Go("host", func(p *sim.Proc) {
		res = Poll(p, inst.DevMixedSend(local, hbuf, 16, dbuf, 32))
	})
	r.env.Run(0)
	if res.Err != nil || res.Size != 48 {
		t.Fatalf("send result %+v", res)
	}
	want := append([]byte("HEADERHEADERHEAD"), []byte("PAYLOADPAYLOADPAYLOADPAYLOADPAYL")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("assembled message = %q", got)
	}
}

// TestDevFuncEncodesAtWriteback: the dev_func job calls its bound
// encode once, when the engine's compute time has passed, writes the
// result where the encode put it, and reports the encode's size after
// the completion record crossed to the host; a down engine rejects the
// job without calling the encode.
func TestDevFuncEncodesAtWriteback(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	src, _ := r.dev.DevAlloc(4096)
	dst, _ := r.dev.DevAlloc(lz4.CompressBound(4096))
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i % 7) // compressible
	}
	calls, encodedAt := 0, 0.0
	encode := func() float64 {
		calls++
		encodedAt = r.env.Now()
		n, err := lz4.Compress(dst.Bytes(), src.Bytes(), lz4.LevelDefault)
		if err != nil {
			t.Fatal(err)
		}
		return float64(n)
	}
	var res Result
	r.env.Go("host", func(p *sim.Proc) { res = Poll(p, inst.DevFunc(4096, encode)) })
	r.env.Run(0)
	if res.Err != nil || res.Size <= 0 || res.Size >= 4096 || calls != 1 {
		t.Fatalf("result %+v after %d encodes", res, calls)
	}
	if want := 4096 / r.dev.Config().EngineBytesPerSec; encodedAt != want {
		t.Fatalf("encoded at %g, want at the end of the compute time, %g", encodedAt, want)
	}
	if back, err := lz4.DecompressToBuf(dst.Bytes()[:res.Size], 4096); err != nil || !bytes.Equal(back, src.Bytes()) {
		t.Fatalf("device compression corrupted data: %v", err)
	}
	if d2h := r.dev.PCIe().Snapshot().D2HBytes; d2h != r.dev.Config().CompletionBytes {
		t.Fatalf("%g bytes crossed D2H, want only the %g-byte completion record", d2h, r.dev.Config().CompletionBytes)
	}

	inst.Engine().SetDown(true)
	r.env.Go("host", func(p *sim.Proc) { res = Poll(p, inst.DevFunc(4096, encode)) })
	r.env.Run(0)
	if res.Err == nil || calls != 1 {
		t.Fatalf("job on a down engine returned %+v after %d encodes", res, calls)
	}
}

// TestDevMixedSendModeledPayload: a send with no device buffer times
// its payload as gathered but carries only the header's bytes, with
// the message sized for the whole payload.
func TestDevMixedSendModeledPayload(t *testing.T) {
	run := func(modeled bool) (*rdma.Message, float64) {
		r := newRig(t, 1)
		inst, _ := r.dev.OpenRoCEInstance(0)
		local, remote := r.connect(t, 0)
		var got *rdma.Message
		remote.OnRecv = func(m *rdma.Message) { got = m }
		hbuf := r.dev.HostAlloc(64)
		dbuf, _ := r.dev.DevAlloc(1024)
		if modeled {
			dbuf = nil
		}
		var at float64
		r.env.Go("host", func(p *sim.Proc) {
			Poll(p, inst.DevMixedSend(local, hbuf, 64, dbuf, 1024))
			at = p.Now()
		})
		r.env.Run(0)
		return got, at
	}
	full, fullAt := run(false)
	m, at := run(true)
	if m == nil || len(m.Data) != 64 || m.Size != full.Size || len(full.Data) != 64+1024 || at != fullAt {
		t.Fatalf("modeled send delivered %v at %g, gathered send %v at %g", m, at, full, fullAt)
	}
}

func TestMultiPortInstancesIndependent(t *testing.T) {
	r := newRig(t, 4)
	if r.dev.Ports() != 4 {
		t.Fatalf("ports = %d", r.dev.Ports())
	}
	if got := r.dev.FPGA().LUTs; got < 600 || got > 650 {
		t.Fatalf("SmartDS-4 LUTs = %g", got)
	}
	// Each instance has its own engine and stack address.
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		inst, err := r.dev.OpenRoCEInstance(i)
		if err != nil {
			t.Fatal(err)
		}
		addr := string(inst.Stack().Addr())
		if seen[addr] {
			t.Fatalf("duplicate instance address %s", addr)
		}
		seen[addr] = true
	}
}

func TestRecvDescriptorValidation(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	local, _ := r.connect(t, 0)
	hbuf := r.dev.HostAlloc(8)
	dbuf, _ := r.dev.DevAlloc(64)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized descriptor did not panic")
		}
	}()
	inst.DevMixedRecv(local, hbuf, 100, dbuf, 64)
}

func TestForeignQPPanics(t *testing.T) {
	r := newRig(t, 1)
	inst, _ := r.dev.OpenRoCEInstance(0)
	foreign := r.peer.CreateQP()
	hbuf := r.dev.HostAlloc(8)
	dbuf, _ := r.dev.DevAlloc(64)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign QP did not panic")
		}
	}()
	inst.DevMixedRecv(foreign, hbuf, 8, dbuf, 64)
}
