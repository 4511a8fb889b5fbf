package storage

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
)

func TestChunkStoreAppendLookup(t *testing.T) {
	s := NewChunkStore()
	k := BlockKey{SegmentID: 1, ChunkID: 2, BlockOff: 3}
	s.Append(k, []byte("v1"))
	s.Append(k, []byte("v2"))
	rec, ok := s.Lookup(k)
	if !ok || string(rec.Data) != "v2" {
		t.Fatalf("lookup = %v %v", rec, ok)
	}
	if s.Records() != 2 {
		t.Fatalf("records = %d", s.Records())
	}
	if s.LiveBytes() != 2 || s.DeadBytes() != 2 {
		t.Fatalf("live=%d dead=%d", s.LiveBytes(), s.DeadBytes())
	}
}

func TestChunkStoreCompact(t *testing.T) {
	s := NewChunkStore()
	k := BlockKey{}
	for i := 0; i < 10; i++ {
		s.Append(k, bytes.Repeat([]byte{byte(i)}, 10))
	}
	if s.GarbageRatio() != 0.9 {
		t.Fatalf("garbage ratio %g", s.GarbageRatio())
	}
	reclaimed := s.Compact()
	if reclaimed != 90 {
		t.Fatalf("reclaimed %d", reclaimed)
	}
	if s.Records() != 1 || s.DeadBytes() != 0 {
		t.Fatalf("after compact: records=%d dead=%d", s.Records(), s.DeadBytes())
	}
	rec, ok := s.Lookup(k)
	if !ok || rec.Data[0] != 9 {
		t.Fatal("latest version lost in compaction")
	}
}

func TestChunkStoreAppendIsolatesCaller(t *testing.T) {
	s := NewChunkStore()
	buf := []byte("mutable")
	s.Append(BlockKey{}, buf)
	buf[0] = 'X'
	rec, _ := s.Lookup(BlockKey{})
	if rec.Data[0] == 'X' {
		t.Fatal("store aliases caller buffer")
	}
}

func TestChunkStoreProperty(t *testing.T) {
	// Lookup always returns the last appended version per key, and
	// compaction never changes lookup results.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		s := NewChunkStore()
		want := map[BlockKey]byte{}
		for i := 0; i < 300; i++ {
			k := BlockKey{ChunkID: uint32(r.Intn(8)), BlockOff: uint32(r.Intn(16))}
			v := byte(r.Intn(256))
			s.Append(k, []byte{v})
			want[k] = v
			if r.Float64() < 0.05 {
				s.Compact()
			}
		}
		s.Compact()
		for k, v := range want {
			rec, ok := s.Lookup(k)
			if !ok || rec.Data[0] != v {
				return false
			}
		}
		return s.DeadBytes() == 0 && s.Records() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskTiming(t *testing.T) {
	e := sim.NewEnv()
	d := NewDisk(e, "d", DiskConfig{WriteLatency: 10e-6, ReadLatency: 50e-6, BytesPerSec: 1e9, QueueDepth: 4})
	var wt, rt sim.Time
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		d.Write(p, 1e6) // 10us + 1ms
		wt = p.Now() - start
		start = p.Now()
		d.Read(p, 1e6) // 50us + 1ms
		rt = p.Now() - start
	})
	e.Run(0)
	if wt < 1.00e-3 || wt > 1.02e-3 {
		t.Fatalf("write time %g", wt)
	}
	if rt < 1.04e-3 || rt > 1.06e-3 {
		t.Fatalf("read time %g", rt)
	}
}

// rig wires a server and a client QP pair.
type rig struct {
	env    *sim.Env
	server *Server
	client *rdma.QP
	sqp    *rdma.QP
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEnv()
	f := netsim.NewFabric(e, netsim.DefaultConfig())
	srv := NewServer(e, f, "ss0", 12.5e9, rdma.DefaultConfig(), DefaultDisk())
	peer := rdma.NewStack(e, f.NewPort("mt", 12.5e9), rdma.DefaultConfig())
	cqp := peer.CreateQP()
	sqp := srv.AcceptQP()
	rdma.Connect(cqp, sqp)
	return &rig{env: e, server: srv, client: cqp, sqp: sqp}
}

func TestServerWriteThenRead(t *testing.T) {
	r := newRig(t)
	r.server.Verify = true
	block := bytes.Repeat([]byte("data0123"), 512) // 4 KB
	frame, _ := lz4.EncodeFrame(block, lz4.LevelDefault)
	h := blockstore.Header{
		Op:        blockstore.OpReplicate,
		Flags:     blockstore.FlagCompressed,
		ReqID:     1,
		SegmentID: 5,
		ChunkID:   6,
		BlockOff:  7,
		OrigLen:   uint32(len(block)),
		CRC:       lz4.Checksum(block),
	}

	var writeStatus, readStatus blockstore.Status
	var fetched []byte
	// buffered host-side reply counter; callbacks run on the single scheduler thread
	replies := make(chan struct{}, 8)
	r.client.OnRecv = func(m *rdma.Message) {
		rh, payload, err := blockstore.SplitMessage(m.Data)
		if err != nil {
			t.Errorf("bad reply: %v", err)
			return
		}
		switch rh.Op {
		case blockstore.OpReplicateReply:
			writeStatus = rh.Status
		case blockstore.OpFetchReply:
			readStatus = rh.Status
			fetched = append([]byte(nil), payload...)
		}
		replies <- struct{}{} // buffered, never blocks; same scheduler thread
	}

	r.env.Go("mt", func(p *sim.Proc) {
		p.Wait(r.client.Send(blockstore.Message(&h, frame)))
		p.Sleep(1e-3)
		rh := blockstore.Header{Op: blockstore.OpFetch, ReqID: 2, SegmentID: 5, ChunkID: 6, BlockOff: 7}
		p.Wait(r.client.Send(rh.Encode()))
	})
	r.env.Run(0)

	if writeStatus != blockstore.StatusOK {
		t.Fatalf("write status %v", writeStatus)
	}
	if readStatus != blockstore.StatusOK {
		t.Fatalf("read status %v", readStatus)
	}
	got, err := lz4.DecodeFrame(fetched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block) {
		t.Fatal("fetched block differs from written block")
	}
	if r.server.Writes != 1 || r.server.Reads != 1 {
		t.Fatalf("counters: w=%d r=%d", r.server.Writes, r.server.Reads)
	}
}

func TestServerReadMissing(t *testing.T) {
	r := newRig(t)
	var status blockstore.Status = 255
	r.client.OnRecv = func(m *rdma.Message) {
		rh, _, _ := blockstore.SplitMessage(m.Data)
		status = rh.Status
	}
	r.env.Go("mt", func(p *sim.Proc) {
		h := blockstore.Header{Op: blockstore.OpFetch, ReqID: 3}
		p.Wait(r.client.Send(h.Encode()))
	})
	r.env.Run(0)
	if status != blockstore.StatusNotFound {
		t.Fatalf("status = %v, want NotFound", status)
	}
}

func TestServerRejectsCorruptPayload(t *testing.T) {
	r := newRig(t)
	r.server.Verify = true
	block := bytes.Repeat([]byte("x"), 1024)
	frame, _ := lz4.EncodeFrame(block, lz4.LevelDefault)
	h := blockstore.Header{
		Op:    blockstore.OpReplicate,
		Flags: blockstore.FlagCompressed,
		CRC:   lz4.Checksum(block) ^ 1, // wrong CRC
	}
	var status blockstore.Status = 255
	r.client.OnRecv = func(m *rdma.Message) {
		rh, _, _ := blockstore.SplitMessage(m.Data)
		status = rh.Status
	}
	r.env.Go("mt", func(p *sim.Proc) {
		p.Wait(r.client.Send(blockstore.Message(&h, frame)))
	})
	r.env.Run(0)
	if status != blockstore.StatusCorrupt {
		t.Fatalf("status = %v, want Corrupt", status)
	}
	if _, ok := r.server.Store().Lookup(BlockKey{}); ok {
		t.Fatal("corrupt block stored anyway")
	}
}

func TestServerModeledOnlyTraffic(t *testing.T) {
	// nil-Data messages (pure-throughput experiments) still get replies.
	r := newRig(t)
	got := 0
	r.client.OnRecv = func(*rdma.Message) { got++ }
	r.env.Go("mt", func(p *sim.Proc) {
		p.Wait(r.client.SendSized(nil, 4096))
	})
	r.env.Run(0)
	if got != 1 || r.server.Writes != 1 {
		t.Fatalf("modeled traffic: replies=%d writes=%d", got, r.server.Writes)
	}
}

func TestServerGarbageReply(t *testing.T) {
	r := newRig(t)
	var status blockstore.Status = 255
	r.client.OnRecv = func(m *rdma.Message) {
		rh, _, _ := blockstore.SplitMessage(m.Data)
		status = rh.Status
	}
	r.env.Go("mt", func(p *sim.Proc) {
		p.Wait(r.client.Send([]byte("not a header at all, just junk bytes...............")))
	})
	r.env.Run(0)
	if status != blockstore.StatusError {
		t.Fatalf("status = %v, want Error", status)
	}
}

// BenchmarkChunkStoreAppend measures one versioned append of a 4 KiB
// frame, the store's per-replica write path: the payload copy, the
// record and the index update. Writes cycle over 4096 blocks, so from
// the second lap on each append supersedes a live record.
func BenchmarkChunkStoreAppend(b *testing.B) {
	const blocks = 4096
	frame := make([]byte, 4096)
	s := NewChunkStore()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := BlockKey{SegmentID: 1, ChunkID: uint32(i % blocks / 256), BlockOff: uint32(i % 256)}
		s.AppendVersioned(key, frame, blockstore.FlagCompressed, uint64(i+1))
	}
}
