// KVStore: a log-structured key-value store whose pages persist on a
// virtual disk served by a SmartDS middle tier — the kind of workload
// the paper's introduction motivates (LSM-style storage engines whose
// pages compress well, so middle-tier compression pays).
//
// The store appends fixed 4 KB pages of serialized records, keeps an
// in-memory index (key -> page LBA), and reads pages back on Get. All
// persistence flows through the full simulated stack: AAMS split,
// hardware LZ4, 3-way replication, CRC verification.
//
//	go run ./examples/kvstore
package main

import (
	"encoding/binary"
	"fmt"
	"os"

	"github.com/disagg/smartds/internal/cluster"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/vdisk"
)

const pageSize = 4096

// kv is the toy storage engine.
type kv struct {
	disk    *vdisk.Disk
	index   map[string]uint64 // key -> page LBA
	page    []byte            // open page being filled
	pageOff int
	nextLBA uint64
}

func newKV(disk *vdisk.Disk) *kv {
	return &kv{disk: disk, index: make(map[string]uint64), page: make([]byte, pageSize)}
}

// record layout: u16 keyLen, u16 valLen, key, val
func (s *kv) Put(p *sim.Proc, key, val string) error {
	need := 4 + len(key) + len(val)
	if s.pageOff+need > pageSize {
		if err := s.flushPage(p); err != nil {
			return err
		}
	}
	off := s.pageOff
	binary.LittleEndian.PutUint16(s.page[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(s.page[off+2:], uint16(len(val)))
	copy(s.page[off+4:], key)
	copy(s.page[off+4+len(key):], val)
	s.pageOff += need
	s.index[key] = s.nextLBA // key lives in the page being written next flush
	return nil
}

func (s *kv) flushPage(p *sim.Proc) error {
	if s.pageOff == 0 {
		return nil
	}
	for i := s.pageOff; i < pageSize; i++ {
		s.page[i] = 0
	}
	if err := s.disk.Write(p, s.nextLBA, s.page); err != nil {
		return err
	}
	s.nextLBA++
	s.page = make([]byte, pageSize)
	s.pageOff = 0
	return nil
}

// Get fetches the page holding key and scans it for the record.
func (s *kv) Get(p *sim.Proc, key string) (string, error) {
	lba, ok := s.index[key]
	if !ok {
		return "", fmt.Errorf("kv: unknown key %q", key)
	}
	page, err := s.disk.Read(p, lba)
	if err != nil {
		return "", err
	}
	for off := 0; off+4 <= len(page); {
		kl := int(binary.LittleEndian.Uint16(page[off:]))
		vl := int(binary.LittleEndian.Uint16(page[off+2:]))
		if kl == 0 && vl == 0 {
			break
		}
		if off+4+kl+vl > len(page) {
			break
		}
		k := string(page[off+4 : off+4+kl])
		v := string(page[off+4+kl : off+4+kl+vl])
		if k == key {
			return v, nil
		}
		off += 4 + kl + vl
	}
	return "", fmt.Errorf("kv: key %q missing from its page", key)
}

func main() {
	// A SmartDS-1 cluster; the KV store gets its own virtual disk.
	cfg := cluster.DefaultConfig(middletier.SmartDS)
	c := cluster.New(cfg)
	agent := rdma.NewStack(c.Env, c.Fabric.NewPort("kv-vm", 12.5e9), rdma.DefaultConfig())
	disk := vdisk.Attach(c.Env, c.MT.ConnectClient(agent), vdisk.Config{VMID: 77, Verify: true})
	store := newKV(disk)

	const n = 2000
	failed := false
	c.Env.Go("db", func(p *sim.Proc) {
		// Load phase: write n records.
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("user:%06d", i)
			val := fmt.Sprintf("{balance: %d, region: %d, status: ACTIVE}", i*17%10000, i%8)
			if err := store.Put(p, key, val); err != nil {
				fmt.Println("put failed:", err)
				failed = true
				return
			}
		}
		if err := store.flushPage(p); err != nil {
			fmt.Println("flush failed:", err)
			failed = true
			return
		}
		// Query phase: read every 37th record back.
		for i := 0; i < n; i += 37 {
			key := fmt.Sprintf("user:%06d", i)
			want := fmt.Sprintf("{balance: %d, region: %d, status: ACTIVE}", i*17%10000, i%8)
			got, err := store.Get(p, key)
			if err != nil || got != want {
				fmt.Printf("get %s failed: %v (got %q)\n", key, err, got)
				failed = true
				return
			}
		}
	})
	c.Env.Run(0)
	c.MT.Quiesce()
	if failed {
		os.Exit(1)
	}

	fmt.Printf("kvstore: %d records across %d pages, all queried values correct ✓\n", n, store.nextLBA)
	fmt.Printf("  disk: %d writes (avg %s), %d reads (avg %s), %d errors\n",
		disk.Writes, metrics.FormatDuration(disk.WriteLat.Mean()),
		disk.Reads, metrics.FormatDuration(disk.ReadLat.Mean()), disk.Errors)
	stored := float64(c.Storage[0].Store().LiveBytes())
	raw := float64(store.nextLBA) * pageSize
	fmt.Printf("  compression: %s of pages stored as %s per replica (%.2fx)\n",
		metrics.FormatBytes(raw), metrics.FormatBytes(stored), raw/stored)
	fmt.Printf("  virtual time: %s\n", metrics.FormatDuration(c.Env.Now()))
}
