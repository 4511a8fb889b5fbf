// Package vdisk is the compute-server side of the system: a virtual
// disk (paper §2.1) exposed to a VM by its storage agent. Reads and
// writes are LBA-addressed 4 KB blocks; the agent maps each to its
// segment/chunk location, frames the block-storage header, and talks
// to the middle tier over RDMA.
package vdisk

import (
	"errors"
	"fmt"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
)

// Errors surfaced to the VM.
var (
	ErrNotFound   = errors.New("vdisk: block not found")
	ErrCorrupt    = errors.New("vdisk: block failed integrity check")
	ErrRemote     = errors.New("vdisk: remote error")
	ErrBadRequest = errors.New("vdisk: invalid request")
)

// Result is the value carried by asynchronous completions.
type Result struct {
	Data []byte // read results
	Err  error
}

// Disk is one attached virtual disk.
type Disk struct {
	env  *sim.Env
	geo  blockstore.Geometry
	qp   *rdma.QP
	vmID uint64

	blockSize     int
	nextReq       uint64
	pending       map[uint64]*op
	verifyDefault bool

	// Stats.
	Writes, Reads, Errors uint64
	WriteLat, ReadLat     *metrics.Histogram
}

type op struct {
	done   *sim.Event
	isRead bool
	start  sim.Time
	crc    uint32
	verify bool
}

// Config parameterizes Attach.
type Config struct {
	VMID      uint64
	BlockSize int
	Geometry  blockstore.Geometry
	// Verify makes reads check the returned block's CRC against the
	// CRC recorded at write time (catches any corruption end to end).
	Verify bool
}

// Attach binds a disk to an already-connected client QP (the agent's
// connection to its middle-tier server).
func Attach(env *sim.Env, qp *rdma.QP, cfg Config) *Disk {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	if cfg.Geometry == (blockstore.Geometry{}) {
		cfg.Geometry = blockstore.DefaultGeometry()
	}
	d := &Disk{
		env:       env,
		geo:       cfg.Geometry,
		qp:        qp,
		vmID:      cfg.VMID,
		blockSize: cfg.BlockSize,
		pending:   make(map[uint64]*op),
		WriteLat:  metrics.NewLatencyHistogram(),
		ReadLat:   metrics.NewLatencyHistogram(),
	}
	d.verifyDefault = cfg.Verify
	qp.OnRecv = d.onReply
	return d
}

// WriteAsync issues a write of one block at lba. The returned event's
// value is a Result (Err nil on success). latencySensitive requests
// bypass compression in the middle tier (paper §4.3).
func (d *Disk) WriteAsync(lba uint64, data []byte, latencySensitive bool) *sim.Event {
	ev := d.env.NewEvent()
	if len(data) != d.blockSize {
		ev.Trigger(Result{Err: fmt.Errorf("%w: block must be %d bytes, got %d", ErrBadRequest, d.blockSize, len(data))})
		return ev
	}
	d.nextReq++
	id := d.nextReq
	loc := d.geo.Resolve(lba)
	h := blockstore.Header{
		Op: blockstore.OpWrite, VMID: d.vmID, ReqID: id,
		SegmentID: loc.SegmentID, ChunkID: loc.ChunkID, BlockOff: loc.BlockOff,
		OrigLen: uint32(len(data)), CRC: lz4.Checksum(data),
	}
	if latencySensitive {
		h.Flags |= blockstore.FlagLatencySensitive
	}
	d.pending[id] = &op{done: ev, start: d.env.Now()}
	d.qp.Send(blockstore.Message(&h, data))
	return ev
}

// Write issues a write and blocks the process until it is durable on
// all replicas.
func (d *Disk) Write(p *sim.Proc, lba uint64, data []byte) error {
	res := p.Wait(d.WriteAsync(lba, data, false)).(Result)
	return res.Err
}

// ReadAsync issues a read of one block.
func (d *Disk) ReadAsync(lba uint64) *sim.Event {
	ev := d.env.NewEvent()
	d.nextReq++
	id := d.nextReq
	loc := d.geo.Resolve(lba)
	h := blockstore.Header{
		Op: blockstore.OpRead, VMID: d.vmID, ReqID: id,
		SegmentID: loc.SegmentID, ChunkID: loc.ChunkID, BlockOff: loc.BlockOff,
	}
	d.pending[id] = &op{done: ev, isRead: true, start: d.env.Now(), verify: d.verifyDefault}
	d.qp.SendSized(h.Encode(), blockstore.HeaderSize)
	return ev
}

// Read issues a read and blocks until the block arrives.
func (d *Disk) Read(p *sim.Proc, lba uint64) ([]byte, error) {
	res := p.Wait(d.ReadAsync(lba)).(Result)
	return res.Data, res.Err
}

// Flush blocks until every outstanding request has completed.
func (d *Disk) Flush(p *sim.Proc) {
	for len(d.pending) > 0 {
		// Wait on any one pending op; loop re-checks.
		for _, o := range d.pending {
			p.Wait(o.done)
			break
		}
	}
}

// Outstanding reports in-flight requests.
func (d *Disk) Outstanding() int { return len(d.pending) }

// onReply completes requests as middle-tier replies arrive.
func (d *Disk) onReply(m *rdma.Message) {
	h, err := blockstore.Decode(m.Data)
	if err != nil {
		return
	}
	o, ok := d.pending[h.ReqID]
	if !ok {
		return
	}
	delete(d.pending, h.ReqID)
	lat := d.env.Now() - o.start

	var res Result
	switch h.Status {
	case blockstore.StatusOK:
	case blockstore.StatusNotFound:
		res.Err = ErrNotFound
	case blockstore.StatusCorrupt:
		res.Err = ErrCorrupt
	default:
		res.Err = ErrRemote
	}
	if o.isRead {
		d.Reads++
		d.ReadLat.Record(lat)
		if res.Err == nil {
			if len(m.Data) > blockstore.HeaderSize {
				res.Data = append([]byte(nil), m.Data[blockstore.HeaderSize:]...)
			}
			if o.verify && res.Data == nil {
				res.Err = ErrCorrupt // expected payload bytes, got none
			}
		}
	} else {
		d.Writes++
		d.WriteLat.Record(lat)
	}
	if res.Err != nil {
		d.Errors++
	}
	o.done.Trigger(res)
}
