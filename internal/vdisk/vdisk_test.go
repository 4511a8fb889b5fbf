package vdisk

import (
	"bytes"
	"testing"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/storage"
)

// rig wires a disk to a real SmartDS middle tier with three storage
// servers.
type rig struct {
	env  *sim.Env
	disk *Disk
	mt   *middletier.Server
	ss   []*storage.Server
}

func newRig(t *testing.T, kind middletier.Kind) *rig {
	t.Helper()
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	cfg := middletier.DefaultConfig(kind)
	cfg.HBM.Capacity = 64 << 20
	mt := middletier.New(env, fabric, cfg)
	t.Cleanup(mt.Quiesce)
	var servers []*storage.Server
	for i := 0; i < 3; i++ {
		servers = append(servers, storage.NewServer(env, fabric,
			netsim.Addr(string(rune('A'+i))), 12.5e9, cfg.Transport, storage.DefaultDisk()))
	}
	mt.ConnectStorage(servers)

	agent := rdma.NewStack(env, fabric.NewPort("vm", 12.5e9), rdma.DefaultConfig())
	qp := mt.ConnectClient(agent)
	disk := Attach(env, qp, Config{VMID: 9, Verify: true})
	return &rig{env: env, disk: disk, mt: mt, ss: servers}
}

func block(seed uint64) []byte {
	b := make([]byte, 4096)
	r := rng.New(seed)
	for i := 0; i < len(b); i += 16 {
		copy(b[i:], "record:")
		b[i+8] = byte(r.Intn(4))
	}
	return b
}

func TestWriteThenReadBack(t *testing.T) {
	r := newRig(t, middletier.SmartDS)
	want := block(1)
	var got []byte
	var werr, rerr error
	r.env.Go("vm", func(p *sim.Proc) {
		werr = r.disk.Write(p, 12345, want)
		got, rerr = r.disk.Read(p, 12345)
	})
	r.env.Run(0)
	if werr != nil || rerr != nil {
		t.Fatalf("errors: write=%v read=%v", werr, rerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read returned different bytes than written")
	}
	if r.disk.Writes != 1 || r.disk.Reads != 1 || r.disk.Errors != 0 {
		t.Fatalf("stats: %d/%d/%d", r.disk.Writes, r.disk.Reads, r.disk.Errors)
	}
	if r.disk.WriteLat.Count() != 1 || r.disk.WriteLat.Mean() <= 0 {
		t.Fatal("write latency not recorded")
	}
}

func TestReadMissingBlock(t *testing.T) {
	r := newRig(t, middletier.SmartDS)
	var err error
	r.env.Go("vm", func(p *sim.Proc) {
		_, err = r.disk.Read(p, 999)
	})
	r.env.Run(0)
	if err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if r.disk.Errors != 1 {
		t.Fatalf("errors = %d", r.disk.Errors)
	}
}

func TestWriteWrongSizeRejected(t *testing.T) {
	r := newRig(t, middletier.SmartDS)
	var err error
	r.env.Go("vm", func(p *sim.Proc) {
		err = r.disk.Write(p, 1, []byte("short"))
	})
	r.env.Run(0)
	if err == nil {
		t.Fatal("short block accepted")
	}
}

func TestAsyncPipelineAndFlush(t *testing.T) {
	r := newRig(t, middletier.SmartDS)
	const n = 32
	r.env.Go("vm", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.disk.WriteAsync(uint64(i), block(uint64(i)), i%5 == 0)
		}
		if r.disk.Outstanding() != n {
			t.Errorf("outstanding = %d, want %d", r.disk.Outstanding(), n)
		}
		r.disk.Flush(p)
		if r.disk.Outstanding() != 0 {
			t.Errorf("outstanding after flush = %d", r.disk.Outstanding())
		}
	})
	r.env.Run(0)
	if r.disk.Writes != n || r.disk.Errors != 0 {
		t.Fatalf("writes=%d errors=%d", r.disk.Writes, r.disk.Errors)
	}
	// Bypass writes skipped the engine but still got stored.
	if r.mt.BypassHits == 0 {
		t.Fatal("latency-sensitive flag not honored")
	}
	for i, srv := range r.ss {
		if srv.Writes != n {
			t.Fatalf("storage %d got %d writes, want %d", i, srv.Writes, n)
		}
	}
}

func TestOverwriteReturnsLatestVersion(t *testing.T) {
	r := newRig(t, middletier.SmartDS)
	v1, v2 := block(10), block(20)
	var got []byte
	r.env.Go("vm", func(p *sim.Proc) {
		if err := r.disk.Write(p, 7, v1); err != nil {
			t.Errorf("write v1: %v", err)
		}
		if err := r.disk.Write(p, 7, v2); err != nil {
			t.Errorf("write v2: %v", err)
		}
		got, _ = r.disk.Read(p, 7)
	})
	r.env.Run(0)
	if !bytes.Equal(got, v2) {
		t.Fatal("read did not return the latest version")
	}
}

func TestWorksOnCPUOnlyMiddleTier(t *testing.T) {
	r := newRig(t, middletier.CPUOnly)
	want := block(3)
	var got []byte
	r.env.Go("vm", func(p *sim.Proc) {
		if err := r.disk.Write(p, 42, want); err != nil {
			t.Errorf("write: %v", err)
		}
		got, _ = r.disk.Read(p, 42)
	})
	r.env.Run(0)
	if !bytes.Equal(got, want) {
		t.Fatal("CPU-only round trip mismatch")
	}
}

func TestGeometryMappingUsed(t *testing.T) {
	// Writes to LBAs in different chunks land under different keys.
	r := newRig(t, middletier.SmartDS)
	geo := blockstore.DefaultGeometry()
	lbaA := uint64(0)
	lbaB := uint64(geo.BlocksPerChunk()) // first block of chunk 1
	r.env.Go("vm", func(p *sim.Proc) {
		r.disk.Write(p, lbaA, block(1))
		r.disk.Write(p, lbaB, block(2))
	})
	r.env.Run(0)
	store := r.ss[0].Store()
	if _, ok := store.Lookup(storage.BlockKey{ChunkID: 0, BlockOff: 0}); !ok {
		t.Fatal("chunk 0 block missing")
	}
	if _, ok := store.Lookup(storage.BlockKey{ChunkID: 1, BlockOff: 0}); !ok {
		t.Fatal("chunk 1 block missing")
	}
}
