package cluster

import (
	"strconv"

	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/faults"
	"github.com/disagg/smartds/internal/pcie"
	"github.com/disagg/smartds/internal/slo"
	"github.com/disagg/smartds/internal/telemetry"
)

// instrument registers every layer's instruments under the given run
// scope: client-observed progress, the middle tier's degraded-mode
// counters and fan-out depth, transport health per RDMA stack, fabric
// port bytes and queue depths, compression engine busy time, and
// on-card / host memory and PCIe bytes. Every instrument is a pure read
// of cumulative state, so any two readers at one instant agree; a rate
// is the difference of two readings over their time apart. A _total
// name is a counter and never decreases; any other name is a gauge.
func (c *Cluster) instrument(sc *telemetry.RunScope) {
	// Client-observed progress inside the measurement window: the
	// numbers the paper's axes plot. Latency lives in the run record's
	// summary.
	sc.Register("smartds_client_requests_total", nil, func() float64 {
		var n uint64
		for _, cl := range c.Clients {
			n += cl.Done
		}
		return float64(n)
	})
	sc.Register("smartds_client_bytes_total", nil, func() float64 {
		var b float64
		for _, cl := range c.Clients {
			b += cl.BytesMoved
		}
		return b
	})
	sc.Register("smartds_client_errors_total", nil, func() float64 {
		var n uint64
		for _, cl := range c.Clients {
			n += cl.Errors
		}
		return float64(n)
	})

	// Middle-tier request handling and degraded-mode behavior.
	mt := c.MT
	sc.Register("smartds_mt_writes_total", nil, func() float64 { return float64(mt.WritesDone) })
	sc.Register("smartds_mt_reads_total", nil, func() float64 { return float64(mt.ReadsDone) })
	sc.Register("smartds_mt_bypass_total", nil, func() float64 { return float64(mt.BypassHits) })
	sc.Register("smartds_mt_bytes_in_total", nil, func() float64 { return mt.BytesIn })
	sc.Register("smartds_mt_bytes_stored_total", nil, func() float64 { return mt.BytesStored })
	sc.Register("smartds_mt_degraded_total", nil, func() float64 { return float64(mt.Degraded) })
	sc.Register("smartds_mt_unroutable_total", nil, func() float64 { return float64(mt.Unroutable) })
	sc.Register("smartds_mt_replicate_retries_total", nil, func() float64 { return float64(mt.ReplicateRetries) })
	sc.Register("smartds_mt_retry_bytes_total", nil, func() float64 { return mt.RetryBytes })
	sc.Register("smartds_mt_engine_fallbacks_total", nil, func() float64 { return float64(mt.EngineFallbacks) })
	sc.Register("smartds_mt_engine_reroutes_total", nil, func() float64 { return float64(mt.EngineReroutes) })
	sc.Register("smartds_mt_rebuild_bytes_total", nil, func() float64 { return mt.RebuildBytes })
	sc.Register("smartds_mt_stale_acks_total", nil, func() float64 { return float64(mt.StaleAcks) })
	// Which replica slot decided each fan-out (the straggler whose ack
	// closed the wait): visible per replica index without tracing, so a
	// consistently slow replica shows up in any run record.
	for ri := range mt.StragglerAcks {
		ri := ri
		sc.Register("smartds_mt_straggler_acks_total", map[string]string{"replica": strconv.Itoa(ri)},
			func() float64 { return float64(mt.StragglerAcks[ri]) })
	}
	sc.Register("smartds_mt_read_repairs_total", nil, func() float64 { return float64(mt.ReadRepairs) })
	sc.Register("smartds_mt_repair_bytes_total", nil, func() float64 { return mt.RepairBytes })
	sc.Register("smartds_mt_backfill_bytes_total", nil, func() float64 { return mt.BackfillBytes })
	sc.Register("smartds_mt_inflight_fanouts", nil, func() float64 { return float64(mt.InflightFanouts()) })

	// Transport health: one label set per RDMA stack. The middle tier's
	// stacks carry both client and storage traffic; the storage servers'
	// stacks see the replication fan-out.
	for si, st := range mt.TransportStacks() {
		st := st
		labels := map[string]string{"node": "mt", "stack": strconv.Itoa(si)}
		sc.Register("smartds_rdma_retransmits_total", labels, func() float64 { return float64(st.Stats().Retransmits) })
		sc.Register("smartds_rdma_qp_resets_total", labels, func() float64 { return float64(st.Stats().Resets) })
		sc.Register("smartds_rdma_unacked", labels, func() float64 { return float64(st.Stats().Unacked) })
		sc.Register("smartds_rdma_broken_qps", labels, func() float64 { return float64(st.Stats().Broken) })
	}
	for i, srv := range c.Storage {
		st := srv.Stack()
		labels := map[string]string{"node": "ss" + strconv.Itoa(i), "stack": "0"}
		sc.Register("smartds_rdma_retransmits_total", labels, func() float64 { return float64(st.Stats().Retransmits) })
		sc.Register("smartds_rdma_qp_resets_total", labels, func() float64 { return float64(st.Stats().Resets) })
		sc.Register("smartds_rdma_unacked", labels, func() float64 { return float64(st.Stats().Unacked) })
	}

	// Fabric ports: bytes serialized per direction plus instantaneous
	// queue depth, one label set per middle-tier port.
	for pi, port := range mt.NetPorts() {
		port := port
		labels := map[string]string{"node": "mt", "port": strconv.Itoa(pi)}
		sc.Register("smartds_port_tx_bytes_total", labels, func() float64 { return port.TxStats().Work })
		sc.Register("smartds_port_rx_bytes_total", labels, func() float64 { return port.RxStats().Work })
		sc.Register("smartds_port_tx_queue_depth", labels, func() float64 { return float64(port.TxQueueLen()) })
		sc.Register("smartds_port_rx_queue_depth", labels, func() float64 { return float64(port.RxQueueLen()) })
	}

	// Compression engines: busy time, queue depth, and input bytes
	// processed (BF2 SoC engine or SmartDS per-port engines).
	for ei, eng := range mt.Engines() {
		eng := eng
		labels := map[string]string{"engine": strconv.Itoa(ei)}
		sc.Register("smartds_engine_busy_seconds_total", labels, func() float64 { return eng.Utilization().BusyIntegral })
		sc.Register("smartds_engine_queue_depth", labels, func() float64 { return float64(eng.QueueLen()) })
		sc.Register("smartds_engine_bytes_total", labels, func() float64 { return eng.Processed() })
	}

	// On-card memory (BF2 DRAM / SmartDS HBM): bus bytes + bytes
	// resident.
	if dm := mt.DeviceMemory(); dm != nil {
		sc.Register("smartds_hbm_bytes_total", nil, func() float64 { return dm.BusStats().Work })
		sc.Register("smartds_hbm_bytes_in_use", nil, func() float64 { return float64(dm.InUse()) })
	}

	// Host memory and PCIe endpoints of the middle-tier server.
	sc.Register("smartds_mt_mem_read_bytes_total", nil, func() float64 { return mt.Mem.Snapshot().ReadBytes })
	sc.Register("smartds_mt_mem_write_bytes_total", nil, func() float64 { return mt.Mem.Snapshot().WriteBytes })
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
		sc.Register("smartds_pcie_h2d_bytes_total", labels, func() float64 { return link.Snapshot().H2DBytes })
		sc.Register("smartds_pcie_d2h_bytes_total", labels, func() float64 { return link.Snapshot().D2HBytes })
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
