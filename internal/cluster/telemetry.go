package cluster

import (
	"strconv"

	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/telemetry"
)

// instrument registers every layer's instruments under the given run
// scope: client-observed progress and latency, the middle tier's
// degraded-mode counters and fan-out depth, transport health per RDMA
// stack, fabric port rates and queue depths, compression engine
// occupancy, and on-card / host memory bandwidth. Rate gauges close a
// window per sample tick via stateful snapshots; the dt<=0 guards in
// the *Between helpers make coincident reads yield 0, never Inf/NaN.
func (c *Cluster) instrument(sc *telemetry.RunScope) {
	// Client-observed progress: the numbers the paper's axes plot.
	sc.CounterFunc("smartds_client_requests_total",
		"Requests completed by all clients inside the measurement window.",
		nil, func() float64 {
			var n uint64
			for _, cl := range c.Clients {
				n += cl.Done
			}
			return float64(n)
		})
	sc.CounterFunc("smartds_client_bytes_total",
		"Payload bytes served OK to all clients inside the measurement window.",
		nil, func() float64 {
			var b float64
			for _, cl := range c.Clients {
				b += cl.BytesMoved
			}
			return b
		})
	sc.CounterFunc("smartds_client_errors_total",
		"Requests completed with a non-OK status inside the measurement window.",
		nil, func() float64 {
			var n uint64
			for _, cl := range c.Clients {
				n += cl.Errors
			}
			return float64(n)
		})
	for i, cl := range c.Clients {
		// Kept so sampled completions can attach exemplars in onReply.
		cl.latMetric = sc.Histogram("smartds_client_latency_seconds",
			"Client-observed request latency.",
			map[string]string{"client": strconv.Itoa(i)}, cl.Lat)
	}

	// Hierarchical roll-ups: per-client latency folds into one cluster
	// series, per-node/stack transport health into one cluster counter.
	// AddRollup is idempotent per destination, so repeated Runs reuse
	// the same rules.
	reg := c.cfg.Telemetry
	reg.AddRollup("smartds_client_latency_seconds", "smartds_cluster_latency_seconds",
		"Client-observed request latency rolled up across all clients.", "client")
	reg.AddRollup("smartds_rdma_retransmits_total", "smartds_cluster_rdma_retransmits_total",
		"Go-back-N resends rolled up across every node and stack.", "node", "stack")
	reg.AddRollup("smartds_rdma_qp_resets_total", "smartds_cluster_rdma_qp_resets_total",
		"QP resets rolled up across every node and stack.", "node", "stack")

	// Middle-tier request handling and degraded-mode behavior.
	mt := c.MT
	sc.CounterFunc("smartds_mt_writes_total", "Writes completed by the middle tier.",
		nil, func() float64 { return float64(mt.WritesDone) })
	sc.CounterFunc("smartds_mt_reads_total", "Reads completed by the middle tier.",
		nil, func() float64 { return float64(mt.ReadsDone) })
	sc.CounterFunc("smartds_mt_bypass_total", "Latency-sensitive writes that bypassed compression.",
		nil, func() float64 { return float64(mt.BypassHits) })
	sc.CounterFunc("smartds_mt_bytes_in_total", "Payload bytes received from clients.",
		nil, func() float64 { return mt.BytesIn })
	sc.CounterFunc("smartds_mt_bytes_stored_total", "Bytes shipped to storage after compression.",
		nil, func() float64 { return mt.BytesStored })
	sc.CounterFunc("smartds_mt_degraded_total", "Writes placed on fewer than the configured replicas.",
		nil, func() float64 { return float64(mt.Degraded) })
	sc.CounterFunc("smartds_mt_unroutable_total", "Requests with no healthy replica at all.",
		nil, func() float64 { return float64(mt.Unroutable) })
	sc.CounterFunc("smartds_mt_replicate_retries_total", "Replication fan-outs re-issued after timeout.",
		nil, func() float64 { return float64(mt.ReplicateRetries) })
	sc.CounterFunc("smartds_mt_retry_bytes_total", "Payload bytes re-sent by replication retries.",
		nil, func() float64 { return mt.RetryBytes })
	sc.CounterFunc("smartds_mt_engine_fallbacks_total", "Writes stored raw because an engine was down.",
		nil, func() float64 { return float64(mt.EngineFallbacks) })
	sc.CounterFunc("smartds_mt_engine_reroutes_total", "SmartDS writes compressed by a surviving port's engine.",
		nil, func() float64 { return float64(mt.EngineReroutes) })
	sc.CounterFunc("smartds_mt_rebuild_bytes_total", "Stored bytes streamed rebuilding crashed servers.",
		nil, func() float64 { return mt.RebuildBytes })
	sc.CounterFunc("smartds_mt_stale_acks_total", "Storage acks arriving after their fan-out completed or was abandoned.",
		nil, func() float64 { return float64(mt.StaleAcks) })
	// Which replica slot decided each fan-out (the straggler whose ack
	// closed the wait): visible per replica index without tracing, so a
	// consistently slow replica shows up in any metrics dump.
	for ri := range mt.StragglerAcks {
		ri := ri
		sc.CounterFunc("smartds_mt_straggler_acks_total",
			"Fan-out completions whose deciding (last-needed) ack came from this replica slot.",
			map[string]string{"replica": strconv.Itoa(ri)},
			func() float64 { return float64(mt.StragglerAcks[ri]) })
	}
	sc.CounterFunc("smartds_mt_read_repairs_total", "Stale replicas rewritten by quorum reads.",
		nil, func() float64 { return float64(mt.ReadRepairs) })
	sc.CounterFunc("smartds_mt_repair_bytes_total", "Frame bytes pushed by quorum read-repairs.",
		nil, func() float64 { return mt.RepairBytes })
	sc.CounterFunc("smartds_mt_backfill_bytes_total", "Stored chunk bytes copied onto substituted replicas.",
		nil, func() float64 { return mt.BackfillBytes })
	sc.GaugeFunc("smartds_mt_inflight_fanouts", "Client requests with replication fan-outs outstanding.",
		nil, func() float64 { return float64(mt.InflightFanouts()) })

	// Transport health: one label set per RDMA stack. The middle tier's
	// stacks carry both client and storage traffic; the storage servers'
	// stacks see the replication fan-out.
	for si, st := range mt.TransportStacks() {
		st := st
		labels := map[string]string{"node": "mt", "stack": strconv.Itoa(si)}
		sc.CounterFunc("smartds_rdma_retransmits_total", "Go-back-N resends across the stack's QPs.",
			labels, func() float64 { return float64(st.Stats().Retransmits) })
		sc.CounterFunc("smartds_rdma_qp_resets_total", "QP resets (Reconnect incarnations).",
			labels, func() float64 { return float64(st.Stats().Resets) })
		sc.GaugeFunc("smartds_rdma_unacked", "Sends posted but not yet acked (in flight).",
			labels, func() float64 { return float64(st.Stats().Unacked) })
		sc.GaugeFunc("smartds_rdma_broken_qps", "QPs wedged awaiting Reconnect.",
			labels, func() float64 { return float64(st.Stats().Broken) })
	}
	for i, srv := range c.Storage {
		st := srv.Stack()
		labels := map[string]string{"node": "ss" + strconv.Itoa(i), "stack": "0"}
		sc.CounterFunc("smartds_rdma_retransmits_total", "Go-back-N resends across the stack's QPs.",
			labels, func() float64 { return float64(st.Stats().Retransmits) })
		sc.CounterFunc("smartds_rdma_qp_resets_total", "QP resets (Reconnect incarnations).",
			labels, func() float64 { return float64(st.Stats().Resets) })
		sc.GaugeFunc("smartds_rdma_unacked", "Sends posted but not yet acked (in flight).",
			labels, func() float64 { return float64(st.Stats().Unacked) })
	}

	// Fabric ports: serialized rate per direction plus instantaneous
	// queue depth, one label set per middle-tier port.
	for pi, port := range mt.NetPorts() {
		port := port
		labels := map[string]string{"node": "mt", "port": strconv.Itoa(pi)}
		prevTx, prevRx := port.TxStats(), port.RxStats()
		sc.GaugeFunc("smartds_port_tx_bytes_per_sec", "Port transmit rate over the last sample window.",
			labels, func() float64 {
				cur := port.TxStats()
				r := sim.BandwidthBetween(prevTx, cur)
				prevTx = cur
				return r
			})
		sc.GaugeFunc("smartds_port_rx_bytes_per_sec", "Port receive rate over the last sample window.",
			labels, func() float64 {
				cur := port.RxStats()
				r := sim.BandwidthBetween(prevRx, cur)
				prevRx = cur
				return r
			})
		sc.GaugeFunc("smartds_port_tx_queue_depth", "Transfers serializing through the TX direction.",
			labels, func() float64 { return float64(port.TxQueueLen()) })
		sc.GaugeFunc("smartds_port_rx_queue_depth", "Transfers serializing through the RX direction.",
			labels, func() float64 { return float64(port.RxQueueLen()) })
	}

	// Compression engines: windowed occupancy, queue depth, and bytes
	// processed (BF2 SoC engine or SmartDS per-port engines).
	for ei, eng := range mt.Engines() {
		eng := eng
		labels := map[string]string{"engine": strconv.Itoa(ei)}
		prevU := eng.Utilization()
		sc.GaugeFunc("smartds_engine_occupancy", "Engine busy fraction over the last sample window.",
			labels, func() float64 {
				cur := eng.Utilization()
				u := sim.UtilizationBetween(prevU, cur)
				prevU = cur
				return u
			})
		sc.GaugeFunc("smartds_engine_queue_depth", "Jobs waiting for the engine.",
			labels, func() float64 { return float64(eng.QueueLen()) })
		sc.CounterFunc("smartds_engine_bytes_total", "Input bytes processed by the engine.",
			labels, func() float64 { return eng.Processed() })
	}

	// On-card memory (BF2 DRAM / SmartDS HBM): bus bandwidth + bytes
	// resident.
	if dm := mt.DeviceMemory(); dm != nil {
		prevBus := dm.BusStats()
		sc.GaugeFunc("smartds_hbm_bytes_per_sec", "On-card memory bus rate over the last sample window.",
			nil, func() float64 {
				cur := dm.BusStats()
				r := sim.BandwidthBetween(prevBus, cur)
				prevBus = cur
				return r
			})
		sc.GaugeFunc("smartds_hbm_bytes_in_use", "Bytes allocated in on-card memory.",
			nil, func() float64 { return float64(dm.InUse()) })
	}

	// Host memory and PCIe endpoints of the middle-tier server.
	{
		prev := mt.Mem.Snapshot()
		sc.GaugeFunc("smartds_mt_mem_read_bytes_per_sec", "Host memory read rate over the last sample window.",
			nil, func() float64 {
				cur := mt.Mem.Snapshot()
				rd, _ := mem.RatesBetween(prev, cur)
				prev = cur
				return rd
			})
	}
	{
		prev := mt.Mem.Snapshot()
		sc.GaugeFunc("smartds_mt_mem_write_bytes_per_sec", "Host memory write rate over the last sample window.",
			nil, func() float64 {
				cur := mt.Mem.Snapshot()
				_, wr := mem.RatesBetween(prev, cur)
				prev = cur
				return wr
			})
	}
	type pcieEndpoint struct {
		name string
		link *pcie.Link
	}
	endpoints := []pcieEndpoint{}
	if mt.NIC() != nil {
		endpoints = append(endpoints, pcieEndpoint{"nic", mt.NIC().PCIe()})
	}
	if mt.AccelPCIe() != nil {
		endpoints = append(endpoints, pcieEndpoint{"accel", mt.AccelPCIe()})
	}
	if mt.Device() != nil {
		endpoints = append(endpoints, pcieEndpoint{"sds", mt.Device().PCIe()})
	}
	for _, ep := range endpoints {
		link := ep.link
		labels := map[string]string{"endpoint": ep.name}
		{
			prev := link.Snapshot()
			sc.GaugeFunc("smartds_pcie_h2d_bytes_per_sec", "PCIe host-to-device rate over the last sample window.",
				labels, func() float64 {
					cur := link.Snapshot()
					h2d, _ := pcie.RatesBetween(prev, cur)
					prev = cur
					return h2d
				})
		}
		{
			prev := link.Snapshot()
			sc.GaugeFunc("smartds_pcie_d2h_bytes_per_sec", "PCIe device-to-host rate over the last sample window.",
				labels, func() float64 {
					cur := link.Snapshot()
					_, d2h := pcie.RatesBetween(prev, cur)
					prev = cur
					return d2h
				})
		}
	}
}

// faultSummary converts the monitor's campaign stats into the report's
// layer-independent mirror.
func faultSummary(st faults.Stats) telemetry.FaultSummary {
	fs := telemetry.FaultSummary{
		BaselineP99:    st.BaselineP99,
		MaxGap:         st.MaxGap,
		Unavailable:    st.Unavailable,
		ElevatedWindow: st.ElevatedWindow,
		Errors:         st.Errors,
	}
	for _, r := range st.Recoveries {
		fs.Recoveries = append(fs.Recoveries, telemetry.TTR{
			Kind:          r.Event.Kind.String(),
			Target:        r.Event.Target,
			Start:         r.Event.Start,
			TimeToRecover: r.TimeToRecover,
		})
	}
	return fs
}

// critpathSummary converts a blame analysis into the report's
// layer-independent mirror (same pattern as faultSummary).
func critpathSummary(a *critpath.Analysis) telemetry.CritpathSummary {
	cs := telemetry.CritpathSummary{Requests: len(a.Paths)}
	for _, sb := range a.Stages {
		cs.Stages = append(cs.Stages, telemetry.CritpathStage{
			Stage:    sb.Stage,
			Wait:     sb.Wait,
			MeanFrac: sb.MeanFrac,
			P99Frac:  sb.P99Frac,
			P999Frac: sb.P999Frac,
			MeanSec:  sb.MeanSec,
		})
	}
	cs.P99 = critpathExemplar(a.P99)
	cs.P999 = critpathExemplar(a.P999)
	return cs
}

// critpathExemplar converts one percentile exemplar path.
func critpathExemplar(p *critpath.Path) *telemetry.CritpathExemplar {
	if p == nil {
		return nil
	}
	ex := &telemetry.CritpathExemplar{
		TraceID: telemetry.FormatTraceID(p.Req),
		E2E:     float64(p.E2E) * 1e-12,
	}
	for _, seg := range p.Segments {
		ex.Segments = append(ex.Segments, telemetry.CritpathSegment{
			Stage: seg.Stage,
			Wait:  seg.Wait,
			Dur:   float64(seg.Dur) * 1e-12,
			Frac:  float64(seg.Dur) / float64(p.E2E),
		})
	}
	return ex
}

// alertSummary converts fired SLO alerts into the report's
// layer-independent mirror (same pattern as faultSummary).
func alertSummary(alerts []slo.Alert) []telemetry.Alert {
	out := make([]telemetry.Alert, 0, len(alerts))
	for _, al := range alerts {
		out = append(out, telemetry.Alert{
			SLO:       al.SLO,
			Kind:      al.Kind,
			Severity:  al.Severity,
			At:        al.At,
			BurnShort: al.BurnShort,
			BurnLong:  al.BurnLong,
			Detail:    al.Detail,
		})
	}
	return out
}
