package cluster

import (
	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/telemetry"
	"github.com/disagg/smartds/internal/trace"
)

// Workload drives the cluster. With Rate == 0 each client runs a
// closed loop of Window outstanding requests (the paper's "one server
// keeps issuing write requests"); otherwise requests arrive open-loop
// Poisson at Rate requests/second total.
type Workload struct {
	Window         int
	Rate           float64
	Warmup         float64
	Measure        float64
	ReadFraction   float64
	BypassFraction float64
}

// DefaultWorkload returns a saturating write-only closed loop.
func DefaultWorkload() Workload {
	return Workload{
		Window:  32,
		Warmup:  5e-3,
		Measure: 30e-3,
	}
}

// Results summarizes one run.
type Results struct {
	Duration   float64
	Requests   uint64
	Errors     uint64  // non-OK completions inside the measurement window
	RunErrors  uint64  // non-OK completions anywhere in the Run, warm-up and drain included
	Throughput float64 // payload bytes/second (the paper's Gbps axis)
	ReqPerSec  float64
	Lat        metrics.Summary

	// Middle-tier resource rates over the measurement window.
	MemReadRate, MemWriteRate float64
	NICH2D, NICD2H            float64 // host NIC PCIe (CPUOnly/Accel)
	AccelH2D, AccelD2H        float64 // accelerator card PCIe (Accel)
	SDSH2D, SDSD2H            float64 // SmartDS card PCIe
	VerifyMismatches          uint64

	// Alerts fired by the run's SLO burn-rate engine (empty without
	// Config.SLO), in deterministic firing order.
	Alerts []slo.Alert
}

// TotalPCIeH2D sums every PCIe endpoint's host-to-device rate.
func (r Results) TotalPCIeH2D() float64 { return r.NICH2D + r.AccelH2D + r.SDSH2D }

// TotalPCIeD2H sums every PCIe endpoint's device-to-host rate.
func (r Results) TotalPCIeD2H() float64 { return r.NICD2H + r.AccelD2H + r.SDSD2H }

// issue sends one request from the client.
func (cl *Client) issue(w Workload) {
	cl.nextReq++
	id := cl.nextReq
	c := cl.c
	blockSize := c.cfg.MT.BlockSize

	isRead := w.ReadFraction > 0 && cl.rng.Float64() < w.ReadFraction && len(cl.writtenLBAs) > 0
	op := "write"
	if isRead {
		op = "read"
	}
	// One sampling decision covers the request end to end: the client
	// spans here, the net span, and (because the middle tier hashes the
	// same trace id) every middle-tier stage span.
	tid := middletier.TraceID(uint64(cl.id), id)
	tr := c.cfg.Trace.ForRequest(tid)
	// The client span is the request root: the end-to-end interval every
	// stage span tiles in critical-path analysis. The outbound net span
	// is its first child.
	tr.BeginReq(c.Env.Now(), cl.comp, op, id, tid, trace.KindRoot)
	tr.BeginReq(c.Env.Now(), "net", "request", tid, tid, trace.KindService)
	if isRead {
		lba := cl.writtenLBAs[cl.rng.Intn(len(cl.writtenLBAs))]
		loc := c.geo.Resolve(lba)
		h := blockstore.Header{
			Op: blockstore.OpRead, VMID: uint64(cl.id), ReqID: id,
			SegmentID: loc.SegmentID, ChunkID: loc.ChunkID, BlockOff: loc.BlockOff,
		}
		cl.inflight[id] = &issued{at: c.Env.Now(), size: float64(blockSize), isRead: true, block: cl.writtenData[lba]}
		cl.qp.SendSized(h.Encode(), blockstore.HeaderSize)
		return
	}

	// Each client writes unique LBAs (its id in the high bits), so a
	// read always targets a fully durable, unambiguous version.
	lba := uint64(cl.id)<<40 | cl.nextLBA
	cl.nextLBA++
	loc := c.geo.Resolve(lba)
	h := blockstore.Header{
		Op: blockstore.OpWrite, VMID: uint64(cl.id), ReqID: id,
		SegmentID: loc.SegmentID, ChunkID: loc.ChunkID, BlockOff: loc.BlockOff,
		OrigLen: uint32(blockSize),
	}
	if w.BypassFraction > 0 && cl.rng.Float64() < w.BypassFraction {
		h.Flags |= blockstore.FlagLatencySensitive
	}
	iss := &issued{at: c.Env.Now(), size: float64(blockSize), lba: lba}
	cl.inflight[id] = iss
	if c.cfg.Functional {
		// Sample the block straight into the wire message's payload; the
		// client keeps that slice to verify later reads of this LBA.
		msg := make([]byte, blockstore.HeaderSize+blockSize)
		block := msg[blockstore.HeaderSize:]
		c.corpus.Fill(block)
		h.CRC = lz4.Checksum(block)
		h.PayloadLen = uint32(blockSize)
		h.EncodeTo(msg)
		iss.block = block
		cl.qp.Send(msg)
	} else {
		cl.qp.SendSized(h.Encode(), float64(blockstore.HeaderSize+blockSize))
	}
}

// rememberWrite tracks written blocks so reads can verify round trips
// (bounded to keep memory flat on long runs).
func (cl *Client) rememberWrite(lba uint64, block []byte) {
	const maxTracked = 4096
	if cl.writtenData == nil {
		cl.writtenData = make(map[uint64][]byte)
	}
	if _, seen := cl.writtenData[lba]; !seen {
		if len(cl.writtenLBAs) >= maxTracked {
			// Overwrite a random tracked slot.
			i := cl.rng.Intn(len(cl.writtenLBAs))
			delete(cl.writtenData, cl.writtenLBAs[i])
			cl.writtenLBAs[i] = lba
		} else {
			cl.writtenLBAs = append(cl.writtenLBAs, lba)
		}
	}
	cl.writtenData[lba] = block
}

// Run executes the workload and returns measured results.
func (c *Cluster) Run(w Workload) Results {
	if w.Window <= 0 && w.Rate <= 0 {
		w.Window = DefaultWorkload().Window
	}
	if w.Measure <= 0 {
		w.Measure = DefaultWorkload().Measure
	}

	running := true
	for _, cl := range c.Clients {
		cl.Lat.Reset()
		cl.Done = 0
		cl.BytesMoved = 0
		cl.Errors = 0
		cl.runErrors = 0
	}

	// Open a telemetry run scope: one record per Run invocation, with
	// every layer's instruments registered under (exp, design, run-seq)
	// labels and sampled on the registry's sim-clock cadence.
	var scope *telemetry.RunScope
	if c.cfg.Telemetry != nil {
		scope = c.cfg.Telemetry.NewRun(c.cfg.TelemetryExp, c.KindName(), c.cfg.Seed)
		scope.SetProtocol(c.cfg.MT.Protocol.String())
		c.instrument(scope)
	}
	ev0 := c.Env.Events()
	// Cursor into the shared trace ring: clusters in one process share a
	// tracer (and restart virtual time at 0), so the per-run event
	// window is delimited by record position, not by timestamps.
	ev0trace := c.cfg.Trace.Recorded()

	// Attach the SLO burn-rate engine for this run. sloHook is
	// overwritten (not chained) every Run so engines never stack.
	var eng *slo.Engine
	if len(c.cfg.SLO) > 0 {
		eng = slo.NewEngine(c.Env, c.cfg.SLO)
		for _, cl := range c.Clients {
			cl.sloHook = eng.Observe
		}
	}

	if w.Rate > 0 {
		perClient := w.Rate / float64(len(c.Clients))
		for _, cl := range c.Clients {
			cl := cl
			c.Env.Go("client.open", func(p *sim.Proc) {
				for running {
					p.Sleep(cl.rng.Exp(1 / perClient))
					if !running {
						return
					}
					cl.issue(w)
				}
			})
		}
	} else {
		for _, cl := range c.Clients {
			cl := cl
			cl.onComplete = func() {
				if running {
					cl.issue(w)
				}
			}
			c.Env.Go("client.closed", func(p *sim.Proc) {
				for i := 0; i < w.Window; i++ {
					cl.issue(w)
				}
			})
		}
	}

	var memA, memB mem.BandwidthSnapshot
	var nicA, nicB, accA, accB, sdsA, sdsB pcie.Snapshot
	snapshot := func() (mem.BandwidthSnapshot, pcie.Snapshot, pcie.Snapshot, pcie.Snapshot) {
		var nic, acc, sds pcie.Snapshot
		if c.MT.NIC() != nil {
			nic = c.MT.NIC().PCIe().Snapshot()
		}
		if c.MT.AccelPCIe() != nil {
			acc = c.MT.AccelPCIe().Snapshot()
		}
		if c.MT.Device() != nil {
			sds = c.MT.Device().PCIe().Snapshot()
		}
		return c.MT.Mem.Snapshot(), nic, acc, sds
	}

	start := c.Env.Now()
	if scope != nil {
		scope.StartSampling(c.Env, start+w.Warmup+w.Measure)
	}
	eng.Run(start + w.Warmup + w.Measure)
	// Export periodic resource-utilization counters alongside the request
	// spans: middle-tier memory and PCIe bandwidth plus the first
	// client's NIC PSLink, sampled on a fixed virtual-time grid so
	// same-seed runs produce identical traces.
	if tr := c.cfg.Trace; tr != nil {
		stop := start + w.Warmup + w.Measure
		prevMem, prevNIC, prevAcc, prevSDS := snapshot()
		prevTx := c.Clients[0].stack.Port().TxStats()
		prevRx := c.Clients[0].stack.Port().RxStats()
		sample := func() {
			now := c.Env.Now()
			m, nic, acc, sds := snapshot()
			rd, wr := mem.RatesBetween(prevMem, m)
			tr.Counter(now, "mt.mem.read Gbps", metrics.BytesPerSecToGbps(rd))
			tr.Counter(now, "mt.mem.write Gbps", metrics.BytesPerSecToGbps(wr))
			if c.MT.NIC() != nil {
				h2d, d2h := pcie.RatesBetween(prevNIC, nic)
				tr.Counter(now, "mt.nic.pcie.h2d Gbps", metrics.BytesPerSecToGbps(h2d))
				tr.Counter(now, "mt.nic.pcie.d2h Gbps", metrics.BytesPerSecToGbps(d2h))
			}
			if c.MT.AccelPCIe() != nil {
				h2d, d2h := pcie.RatesBetween(prevAcc, acc)
				tr.Counter(now, "mt.accel.pcie.h2d Gbps", metrics.BytesPerSecToGbps(h2d))
				tr.Counter(now, "mt.accel.pcie.d2h Gbps", metrics.BytesPerSecToGbps(d2h))
			}
			if c.MT.Device() != nil {
				h2d, d2h := pcie.RatesBetween(prevSDS, sds)
				tr.Counter(now, "mt.sds.pcie.h2d Gbps", metrics.BytesPerSecToGbps(h2d))
				tr.Counter(now, "mt.sds.pcie.d2h Gbps", metrics.BytesPerSecToGbps(d2h))
			}
			tx := c.Clients[0].stack.Port().TxStats()
			rx := c.Clients[0].stack.Port().RxStats()
			tr.Counter(now, "vm0.nic.tx Gbps", metrics.BytesPerSecToGbps(sim.BandwidthBetween(prevTx, tx)))
			tr.Counter(now, "vm0.nic.rx Gbps", metrics.BytesPerSecToGbps(sim.BandwidthBetween(prevRx, rx)))
			prevMem, prevNIC, prevAcc, prevSDS = m, nic, acc, sds
			prevTx, prevRx = tx, rx
		}
		// Ride the shared 100 µs ticker: the telemetry sampler above
		// subscribes to the same grid, so both fire off one calendar
		// entry per tick (sampler first — subscription order).
		c.Env.Ticker().Subscribe(stop, sample)
	}
	c.Env.At(start+w.Warmup, func() {
		memA, nicA, accA, sdsA = snapshot()
		for _, cl := range c.Clients {
			cl.measuring = true
		}
	})
	end := start + w.Warmup + w.Measure
	c.Env.At(end, func() {
		memB, nicB, accB, sdsB = snapshot()
		for _, cl := range c.Clients {
			cl.measuring = false
		}
		running = false
	})
	// Drain grace period so inflight requests unwind.
	c.Env.Run(end + 5e-3)
	// No helper core may keep encoding once Run returns: callers time
	// and measure the host around Run.
	c.MT.Quiesce()

	res := Results{Duration: w.Measure}
	lat := metrics.NewLatencyHistogram()
	for _, cl := range c.Clients {
		res.Requests += cl.Done
		res.Errors += cl.Errors
		res.RunErrors += cl.runErrors
		res.Throughput += cl.BytesMoved / w.Measure
		res.VerifyMismatches += cl.VerifyMismatches()
		lat.Merge(cl.Lat)
	}
	res.ReqPerSec = float64(res.Requests) / w.Measure
	res.Lat = lat.Summarize()
	res.MemReadRate, res.MemWriteRate = mem.RatesBetween(memA, memB)
	res.NICH2D, res.NICD2H = pcie.RatesBetween(nicA, nicB)
	res.AccelH2D, res.AccelD2H = pcie.RatesBetween(accA, accB)
	res.SDSH2D, res.SDSD2H = pcie.RatesBetween(sdsA, sdsB)
	if eng != nil && c.inj != nil && c.faultSched != nil {
		// Recoveries arrive in schedule order, so TTR alerts land in a
		// deterministic order too.
		for _, r := range c.inj.Monitor.Stats(c.faultSched).Recoveries {
			eng.ObserveTTR(end, r.Event.Kind.String(), r.Event.Target, r.TimeToRecover)
		}
	}
	res.Alerts = eng.Alerts()
	if scope != nil {
		scope.RecordResults(res.Duration, res.Requests, res.Errors,
			res.Throughput, res.ReqPerSec, res.Lat)
		scope.RecordSimEvents(c.Env.Events() - ev0)
		if c.inj != nil && c.faultSched != nil {
			scope.RecordFaults(faultSummary(c.inj.Monitor.Stats(c.faultSched)))
		}
		if len(res.Alerts) > 0 {
			scope.RecordAlerts(alertSummary(res.Alerts))
		}
	}
	if c.cfg.Trace != nil && (scope != nil || c.cfg.CritpathFolded != nil) {
		// Blame profile over this run's sampled requests: critical paths
		// reconstructed from this run's slice of the trace ring and
		// attributed per stage. The telemetry record gets the summary;
		// the folded accumulator gets the stacks, grouped by design and
		// protocol so a sweep's flamegraph stays separable.
		if a := critpath.Analyze(c.cfg.Trace.EventsSince(ev0trace)); len(a.Paths) > 0 {
			if scope != nil {
				scope.RecordCritpath(critpathSummary(a))
			}
			c.cfg.CritpathFolded.Add(c.KindName()+":"+c.cfg.MT.Protocol.String(), a)
		}
	}
	return res
}

// KindName returns the middle-tier label used in tables.
func (c *Cluster) KindName() string {
	k := c.cfg.MT.Kind
	if k == middletier.SmartDS {
		return "SmartDS-" + itoa(c.cfg.MT.Ports)
	}
	return k.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
