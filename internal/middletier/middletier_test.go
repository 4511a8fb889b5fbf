package middletier

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		CPUOnly: "CPU-only", Accel: "Acc", BF2: "BF2", SmartDS: "SmartDS",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestDefaultConfigPerKind(t *testing.T) {
	if DefaultConfig(BF2).Ports != 2 {
		t.Error("BF2 should default to 2 ports")
	}
	if DefaultConfig(SmartDS).Ports != 1 {
		t.Error("SmartDS should default to 1 port")
	}
	cfg := DefaultConfig(CPUOnly)
	if cfg.Replicas != 3 || cfg.BlockSize != 4096 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.SplitBytes != blockstore.HeaderSize {
		t.Errorf("default split = %d, want header size", cfg.SplitBytes)
	}
}

func newTestServer(t *testing.T, kind Kind) *Server {
	t.Helper()
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	cfg := DefaultConfig(kind)
	cfg.HBM.Capacity = 64 << 20
	s := New(env, fabric, cfg)
	t.Cleanup(s.Quiesce)
	return s
}

func TestPendingFanInCountsReplies(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	pr := s.begin(3, 3)
	id := pr.id
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	if pr.done.Done() {
		t.Fatal("pending completed early")
	}
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	if !pr.done.Done() {
		t.Fatal("pending did not complete after all replies")
	}
	if pr.status != blockstore.StatusOK {
		t.Fatalf("status = %v", pr.status)
	}
	// Stale completion for a finished id is ignored.
	s.completePending(id, -1, blockstore.StatusError, frame{}, blockstore.Header{})
}

func TestPendingRecordsWorstStatus(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	pr := s.begin(2, 2)
	id := pr.id
	s.completePending(id, -1, blockstore.StatusOK, frame{}, blockstore.Header{})
	s.completePending(id, -1, blockstore.StatusCorrupt, frame{}, blockstore.Header{})
	if pr.status != blockstore.StatusCorrupt {
		t.Fatalf("fan-in status = %v, want Corrupt", pr.status)
	}
}

func TestParseRequestFunctionalAndModeled(t *testing.T) {
	h := blockstore.Header{Op: blockstore.OpWrite, ReqID: 7, OrigLen: 4096}
	block := bytes.Repeat([]byte{0xAB}, 4096)

	// Functional: header + real payload.
	m := &rdma.Message{Data: blockstore.Message(&h, block), Size: float64(blockstore.HeaderSize + 4096)}
	req, ok := parseRequest(m)
	if !ok || req.hdr.ReqID != 7 || req.in.size != 4096 || !bytes.Equal(req.in.data, block) {
		t.Fatalf("functional parse: %+v ok=%v", req, ok)
	}

	// Modeled: header only, size implies the payload.
	m = &rdma.Message{Data: h.Encode(), Size: float64(blockstore.HeaderSize + 4096)}
	req, ok = parseRequest(m)
	if !ok || req.in.size != 4096 || len(req.in.data) != 0 {
		t.Fatalf("modeled parse: %+v ok=%v", req, ok)
	}

	// Garbage is rejected.
	if _, ok := parseRequest(&rdma.Message{Data: []byte("short")}); ok {
		t.Fatal("garbage accepted")
	}
	if _, ok := parseRequest(&rdma.Message{Data: nil, Size: 4096}); ok {
		t.Fatal("nil-data message accepted")
	}
}

func TestCompressFrameRoundTrips(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	block := bytes.Repeat([]byte("compressible "), 400)[:4096]
	r := &request{in: frame{data: block, size: 4096}, encLevel: s.cfg.Level}
	comp := s.compressFrame(r)
	f := r.out
	if float64(len(f.data)) != f.size || f.size != lz4.FrameHeaderSize+comp {
		t.Fatalf("frame of %d bytes, size %g, comp %g", len(f.data), f.size, comp)
	}
	got, err := lz4.DecodeFrame(f.data)
	if err != nil || !bytes.Equal(got, block) {
		t.Fatalf("frame corrupt: %v", err)
	}

	// A modeled payload compresses at the model ratio, and its frame
	// carries the header like a functional one.
	r = &request{in: frame{size: 4096}, encLevel: s.cfg.Level}
	comp, f = s.compressFrame(r), r.out
	if comp != 4096/modelRatio || f.size != lz4.FrameHeaderSize+comp || len(f.data) != 0 {
		t.Fatalf("modeled frame: size %g, comp %g, %d bytes", f.size, comp, len(f.data))
	}
}

// TestCompressFrameInPlace: an encode bound to a buffer of the
// request's own builds the frame in place there; one bound to no
// buffer builds it in the server's scratch and copies its bytes out,
// since the next write reuses the scratch.
func TestCompressFrameInPlace(t *testing.T) {
	s := newTestServer(t, CPUOnly)
	block := bytes.Repeat([]byte("in place "), 500)[:4096]
	buf := make([]byte, lz4.CompressBound(len(block)))
	r := &request{in: frame{data: block, size: 4096}, encBuf: buf, encLevel: s.cfg.Level}
	s.compressFrame(r)
	if len(r.out.data) == 0 || &r.out.data[0] != &buf[0] {
		t.Fatal("frame not built in the bound buffer")
	}
	want := bytes.Clone(r.out.data)
	r = &request{in: frame{data: block, size: 4096}, encLevel: s.cfg.Level}
	s.compressFrame(r)
	if !bytes.Equal(r.out.data, want) || &r.out.data[0] == &s.encBuf[0] {
		t.Fatal("scratch frame differs or aliases the scratch buffer")
	}
}

// TestSmartDSRejectsOversizedEncode: a payload whose encode would
// overflow the HBM output buffer fails the write before the dev_func
// job is posted, so the engine does no work, no virtual time passes
// and the output buffer is freed.
func TestSmartDSRejectsOversizedEncode(t *testing.T) {
	s := newTestServer(t, SmartDS)
	payload := bytes.Repeat([]byte{7}, s.cfg.BlockSize+512) // fits the descriptor, not the output bound
	r := s.newRequest()
	r.hdr, r.in = blockstore.Header{Op: blockstore.OpWrite}, frame{data: payload, size: float64(len(payload))}
	inUse := s.cardMem.InUse()
	var err error
	s.env.Go("req", func(p *sim.Proc) { _, _, err = s.dp.compress(p, r) })
	s.env.Run(0)
	if err != lz4.ErrShortBuffer || s.engines[0].Processed() != 0 || s.env.Now() != 0 || s.cardMem.InUse() != inUse {
		t.Fatalf("oversized write: err %v, engine processed %g bytes by %g s, HBM in use %d (was %d)",
			err, s.engines[0].Processed(), s.env.Now(), s.cardMem.InUse(), inUse)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	cfg := DefaultConfig(CPUOnly)
	cfg.Workers = 1000 // more cores than the pool has
	defer func() {
		if recover() == nil {
			t.Fatal("overclaimed workers did not panic")
		}
	}()
	New(env, fabric, cfg)
}

func TestUnknownKindPanics(t *testing.T) {
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	cfg := DefaultConfig(CPUOnly)
	cfg.Kind = Kind(99)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	New(env, fabric, cfg)
}

// TestMaintenanceDefaults pins what the services' loops assume of
// their constants: positive cadences, a garbage ratio threshold inside
// (0, 1), and per-pass core time shorter than the pass's interval.
func TestMaintenanceDefaults(t *testing.T) {
	if compactionInterval <= 0 || gcInterval <= 0 || snapshotInterval <= 0 || compactionBytes <= 0 {
		t.Fatalf("maintenance cadences not positive: compaction %g s, gc %g s, snapshot %g s, %d B",
			compactionInterval, gcInterval, snapshotInterval, compactionBytes)
	}
	if gcThreshold <= 0 || gcThreshold >= 1 {
		t.Fatalf("gc threshold %g outside (0, 1)", gcThreshold)
	}
	if compactionCPUTime >= compactionInterval || snapshotCPUTime >= snapshotInterval {
		t.Fatalf("a pass outlasts its interval: compaction %g/%g s, snapshot %g/%g s",
			compactionCPUTime, compactionInterval, snapshotCPUTime, snapshotInterval)
	}
}

func TestAccessorsPerKind(t *testing.T) {
	cpu := newTestServer(t, CPUOnly)
	if cpu.NIC() == nil || cpu.Device() != nil || cpu.AccelPCIe() != nil {
		t.Fatal("CPUOnly accessors wrong")
	}
	acc := newTestServer(t, Accel)
	if acc.NIC() == nil || acc.AccelPCIe() == nil {
		t.Fatal("Accel accessors wrong")
	}
	sds := newTestServer(t, SmartDS)
	if sds.Device() == nil || sds.NIC() != nil {
		t.Fatal("SmartDS accessors wrong")
	}
	if sds.Config().Kind != SmartDS {
		t.Fatal("kind accessor wrong")
	}
}
