// Package cluster assembles the full disaggregated block storage
// system — compute clients (VM storage agents), one middle-tier server
// of any Figure 1 design, and the storage back ends — and drives
// workloads against it, measuring client-observed throughput and
// latency the way the paper's evaluation does.
package cluster

import (
	"fmt"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/corpus"
	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/evlog"
	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/storage"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// Config assembles one cluster.
type Config struct {
	Seed       uint64
	MT         middletier.Config
	NumStorage int
	NumClients int
	// Functional moves real corpus blocks through the system (LZ4
	// compressed for real; clients CRC-check every block they read
	// back). The storage servers' own CRC check (storage.Server.Verify)
	// stays off here; only tests turn it on. When false, payload sizes
	// are modeled (fast large sweeps).
	Functional bool
	Fabric     netsim.Config
	Disk       storage.DiskConfig
	// ClientPortRate is the compute-server NIC rate.
	ClientPortRate float64
	// Trace, when set, records request lifecycle spans.
	Trace *trace.Tracer
	// CritpathFolded, when set (with Trace), accumulates each Run's
	// critical-path blame as folded stacks prefixed by the design name,
	// for flamegraph.pl / speedscope export.
	CritpathFolded *critpath.Folded
	// Telemetry, when set, registers this cluster's instruments with
	// the central registry: each Run opens a run scope labeled
	// (TelemetryExp, design, run-seq), samples every gauge/counter on
	// the registry's sim-clock cadence, and records the run's results
	// for the machine-readable report.
	Telemetry *telemetry.Registry
	// TelemetryExp labels the run records with the owning experiment.
	TelemetryExp string
	// SLO, when non-empty, attaches a burn-rate engine to every Run:
	// completions stream into multi-window burn-rate evaluation on the
	// 100 µs grid and fault recoveries are checked against TTR ceilings.
	// Fired alerts land in Results.Alerts and the telemetry run record.
	SLO []slo.Spec
	// Log, when set, receives structured sim-time events from every
	// layer (cluster runs, middle-tier rebuilds, fault transitions).
	Log *evlog.Logger
}

// DefaultConfig wires the paper's testbed: one middle-tier server,
// three storage servers, one load-generating compute server.
func DefaultConfig(kind middletier.Kind) Config {
	return Config{
		Seed:           42,
		MT:             middletier.DefaultConfig(kind),
		NumStorage:     3,
		NumClients:     1,
		Functional:     true,
		Fabric:         netsim.DefaultConfig(),
		Disk:           storage.DefaultDisk(),
		ClientPortRate: 12.5e9,
	}
}

// Cluster is the assembled system.
type Cluster struct {
	Env     *sim.Env
	Fabric  *netsim.Fabric
	MT      *middletier.Server
	Storage []*storage.Server
	Clients []*Client

	cfg    Config
	corpus *corpus.Corpus
	rng    *rng.Source
	geo    blockstore.Geometry

	// Fault campaign armed by ApplyFaults; Run attaches its recovery
	// summary to the telemetry run record.
	inj        *faults.Injector
	faultSched *faults.Schedule
}

// New builds and wires a cluster.
func New(cfg Config) *Cluster {
	if cfg.NumStorage <= 0 {
		cfg.NumStorage = 3
	}
	if cfg.NumClients <= 0 {
		cfg.NumClients = 1
	}
	if cfg.ClientPortRate <= 0 {
		cfg.ClientPortRate = 12.5e9
	}
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, cfg.Fabric)
	c := &Cluster{
		Env:    env,
		Fabric: fabric,
		cfg:    cfg,
		rng:    rng.New(cfg.Seed),
		geo:    blockstore.DefaultGeometry(),
	}
	if cfg.Functional {
		c.corpus = corpus.New(cfg.Seed + 1)
	}

	// One tracer observes every layer: middle-tier stages, AAMS split/
	// assemble, engine occupancy, transport sends, and disk IOs.
	cfg.MT.Trace = cfg.Trace
	cfg.MT.Transport.Trace = cfg.Trace
	cfg.MT.Log = cfg.Log.With("mt")

	c.MT = middletier.New(env, fabric, cfg.MT)
	for i := 0; i < cfg.NumStorage; i++ {
		srv := storage.NewServer(env, fabric, netsim.Addr(fmt.Sprintf("ss%d", i)),
			cfg.ClientPortRate, cfg.MT.Transport, cfg.Disk)
		srv.Trace = cfg.Trace
		c.Storage = append(c.Storage, srv)
	}
	c.MT.ConnectStorage(c.Storage)

	// SmartDS with multiple ports serves clients per port; give every
	// port at least one client so all ports carry load.
	clients := cfg.NumClients
	if cfg.MT.Kind == middletier.SmartDS && clients < cfg.MT.Ports {
		clients = cfg.MT.Ports
	}
	if cfg.MT.Kind == middletier.BF2 && clients < cfg.MT.Ports {
		clients = cfg.MT.Ports
	}
	for i := 0; i < clients; i++ {
		c.Clients = append(c.Clients, c.newClient(i))
	}
	return c
}

// Client is one compute-server load generator (a VM storage agent).
type Client struct {
	c     *Cluster
	id    int
	comp  string // span component, precomputed so the hot path never allocates it
	stack *rdma.Stack
	qp    *rdma.QP
	rng   *rng.Source

	nextReq  uint64
	inflight map[uint64]*issued

	// Measurement state.
	measuring  bool
	Lat        *metrics.Histogram
	Done       uint64  // completed requests while measuring
	BytesMoved float64 // payload bytes of completed requests while measuring
	Errors     uint64
	verifyMism uint64

	// onComplete refills the closed-loop window.
	onComplete func()
	// completionHook, when set, observes every completion as
	// (virtual time, latency, errored) — the fault monitor's feed.
	completionHook func(at, lat float64, err bool)
	// sloHook feeds the same stream into the run's burn-rate engine
	// (reset by each Run so engines never stack across runs).
	sloHook func(at, lat float64, err bool)
	// latMetric is this client's telemetry latency histogram; sampled
	// completions attach exemplars to it.
	latMetric *telemetry.Metric
	nextLBA   uint64
	// Read-verification tracking.
	writtenLBAs []uint64
	writtenData map[uint64][]byte
}

type issued struct {
	at     sim.Time
	size   float64
	block  []byte // write: the block (tracked on completion); read: expected data
	lba    uint64
	isRead bool
}

func (c *Cluster) newClient(id int) *Client {
	stack := rdma.NewStack(c.Env, c.Fabric.NewPort(netsim.Addr(fmt.Sprintf("vm%d", id)), c.cfg.ClientPortRate), c.cfg.MT.Transport)
	cl := &Client{
		c:        c,
		id:       id,
		comp:     "client" + itoa(id),
		stack:    stack,
		rng:      c.rng.Split(),
		inflight: make(map[uint64]*issued),
		Lat:      metrics.NewLatencyHistogram(),
	}
	cl.qp = c.MT.ConnectClient(stack)
	cl.qp.OnRecv = cl.onReply
	return cl
}

// onReply completes one request: record latency, verify read data.
func (cl *Client) onReply(m *rdma.Message) {
	if m.Data == nil || len(m.Data) < blockstore.HeaderSize {
		return
	}
	h, err := blockstore.Decode(m.Data)
	if err != nil {
		return
	}
	iss, ok := cl.inflight[h.ReqID]
	if !ok {
		return
	}
	delete(cl.inflight, h.ReqID)
	op := "write"
	if iss.isRead {
		op = "read"
	}
	now := cl.c.Env.Now()
	lat := now - iss.at
	errored := h.Status != blockstore.StatusOK
	// Resolve the head-sampling decision once; tr is nil for unsampled
	// requests, making both End calls free.
	tid := middletier.TraceID(uint64(cl.id), h.ReqID)
	tr := cl.c.cfg.Trace.ForRequest(tid)
	tr.End(now, "net", "reply", tid)
	tr.End(now, cl.comp, op, h.ReqID)
	if errored {
		cl.Errors++
	} else if iss.isRead {
		if iss.block != nil && len(m.Data) > blockstore.HeaderSize {
			got := m.Data[blockstore.HeaderSize:]
			if lz4.Checksum(got) != lz4.Checksum(iss.block) {
				cl.verifyMism++
			}
		}
	} else {
		// The write is durable; reads may target it now (block is nil
		// for modeled payloads: the read then skips verification).
		cl.rememberWrite(iss.lba, iss.block)
	}
	if cl.completionHook != nil {
		cl.completionHook(now, lat, errored)
	}
	if cl.sloHook != nil {
		cl.sloHook(now, lat, errored)
	}
	if tr == nil && cl.c.cfg.Trace != nil {
		// Tail-based keep: errors and p999 outliers are retroactively
		// traced even when head sampling dropped them (outliers only
		// once the histogram has enough mass to trust its tail).
		if errored {
			cl.c.cfg.Trace.KeepTail(float64(iss.at), now, "error", tid)
		} else if cl.Lat.Count() >= 512 && lat >= cl.Lat.P999() {
			cl.c.cfg.Trace.KeepTail(float64(iss.at), now, "p999", tid)
		}
	}
	if cl.measuring {
		cl.Lat.Record(lat)
		cl.Done++
		cl.BytesMoved += iss.size
		if tr != nil && cl.latMetric != nil {
			// Exemplar: link this latency bucket to a kept trace id.
			cl.latMetric.RecordExemplar(lat, tid, now)
		}
	}
	if cl.onComplete != nil {
		cl.onComplete()
	}
}

// VerifyMismatches reports reads whose data did not match what was
// written (must be zero).
func (cl *Client) VerifyMismatches() uint64 { return cl.verifyMism }
