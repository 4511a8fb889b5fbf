package faults

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/middletier"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rng"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/storage"
	"github.com/disagg/smartds/internal/trace"
)

// Target is everything the injector needs to reach into a running
// cluster. The cluster package builds it (cluster.ApplyFaults); tests
// can assemble one by hand.
type Target struct {
	Env    *sim.Env
	Fabric *netsim.Fabric
	MT     *middletier.Server
	// Storage is indexed so "ssN" in a spec means Storage[N]; servers
	// are expected at fabric address "ssN" (the cluster convention).
	Storage []*storage.Server
	// Trace, when set, records fault transitions on the "faults" track.
	Trace *trace.Tracer
	// Seed derives every stochastic drop decision; same seed + same
	// schedule replays identically.
	Seed uint64
	// Reconnect re-establishes client<->middle-tier transports whose
	// retry budgets were exhausted during a blackhole window (middle-
	// tier restart). Nil skips the step.
	Reconnect func()
}

// Injector replays one Schedule against a Target.
type Injector struct {
	tgt   Target
	sched *Schedule
	armed bool

	// Monitor collects recovery metrics from client completions; the
	// cluster wires each client's completion hook to it.
	Monitor Monitor
}

// New binds a schedule to a target. Call Arm before Env.Run.
func New(tgt Target, sched *Schedule) *Injector {
	return &Injector{tgt: tgt, sched: sched}
}

// Arm validates every event against the target and installs the loss
// rules and virtual-time timers that fire the campaign. It must run
// before the simulation clock passes the first event.
func (inj *Injector) Arm() error {
	if inj.armed {
		return fmt.Errorf("faults: injector already armed")
	}
	inj.armed = true
	root := rng.New(inj.tgt.Seed ^ 0x5df1a7c4b3e91d07)
	ls := &lossSet{env: inj.tgt.Env}
	for _, e := range inj.sched.Events {
		// One PRNG stream per event, split in schedule order: adding or
		// removing an event never perturbs another event's drops.
		r := root.Split()
		var err error
		switch e.Kind {
		case Loss, BurstLoss:
			err = inj.armLoss(ls, e, r)
		case Crash:
			err = inj.armCrash(ls, e)
		case Degrade:
			err = inj.armDegrade(e)
		case Engine:
			err = inj.armEngine(e)
		case Restart:
			err = inj.armRestart(ls, e)
		}
		if err != nil {
			return fmt.Errorf("faults: %s: %w", e, err)
		}
	}
	if len(ls.rules) > 0 {
		ls.install(inj.tgt.Fabric)
	}
	return nil
}

// emit records a fault transition on the trace's faults track.
func (inj *Injector) emit(at float64, name string, e Event) {
	inj.tgt.Trace.Emit(at, "faults", name, e.String())
}

func (inj *Injector) armLoss(ls *lossSet, e Event, r *rng.Source) error {
	var model lossModel
	if e.Kind == BurstLoss {
		model = &gilbertElliott{p: e.Param, r: r}
	} else {
		model = &bernoulli{p: e.Param, r: r}
	}
	if src, dst, isLink := splitLink(e.Target); isLink {
		srcAddrs, err := inj.resolveAddrs(src)
		if err != nil {
			return err
		}
		dstAddrs, err := inj.resolveAddrs(dst)
		if err != nil {
			return err
		}
		ls.rules = append(ls.rules, &lossRule{
			start: e.Start, end: e.End(),
			src: addrSet(srcAddrs), dst: addrSet(dstAddrs), model: model,
		})
	} else {
		addrs, err := inj.resolveAddrs(e.Target)
		if err != nil {
			return err
		}
		// Node target: loss in both directions, one rule each so a
		// message is never sampled twice.
		set := addrSet(addrs)
		ls.rules = append(ls.rules,
			&lossRule{start: e.Start, end: e.End(), src: set, model: model},
			&lossRule{start: e.Start, end: e.End(), dst: set, model: model})
	}
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.Start, func() { inj.emit(e.Start, "loss-start", e) })
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.End(), func() { inj.emit(e.End(), "loss-end", e) })
	return nil
}

// armCrash fail-stops a storage server: its fabric port goes dark, the
// middle tier routes around it, and the store's contents are lost. At
// recovery the transports are re-established and surviving replicas
// stream the server's chunks back before it rejoins placement.
func (inj *Injector) armCrash(ls *lossSet, e Event) error {
	idx, err := inj.storageIndex(e.Target)
	if err != nil {
		return err
	}
	srv := inj.tgt.Storage[idx]
	set := addrSet([]netsim.Addr{netsim.Addr(e.Target)})
	ls.rules = append(ls.rules,
		&lossRule{start: e.Start, end: e.End(), src: set, model: blockAll{}},
		&lossRule{start: e.Start, end: e.End(), dst: set, model: blockAll{}})
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.Start, func() {
		inj.emit(e.Start, "crash", e)
		inj.tgt.MT.SetServerDown(idx, true)
		srv.Crash()
	})
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.End(), func() {
		srv.Recover()
		inj.tgt.MT.ReconnectStorage(idx, srv)
		inj.tgt.Env.Go("faults.rebuild", func(p *sim.Proc) {
			bytes := inj.tgt.MT.RebuildServer(p, idx, inj.tgt.Storage)
			inj.tgt.MT.SetServerDown(idx, false)
			if inj.tgt.Trace != nil {
				inj.tgt.Trace.Emit(p.Now(), "faults", "recovered",
					fmt.Sprintf("%s rebuilt %.0f snapshot bytes", e.Target, bytes))
			}
		})
	})
	return nil
}

func (inj *Injector) armDegrade(e Event) error {
	addrs, err := inj.resolveAddrs(e.Target)
	if err != nil {
		return err
	}
	ports := make([]*netsim.Port, len(addrs))
	for i, a := range addrs {
		ports[i] = inj.tgt.Fabric.Port(a)
		if ports[i] == nil {
			return fmt.Errorf("no fabric port at %q", a)
		}
	}
	orig := make([]float64, len(ports))
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.Start, func() {
		inj.emit(e.Start, "degrade-start", e)
		for i, p := range ports {
			orig[i] = p.Rate()
			p.SetRate(orig[i] * e.Param)
		}
	})
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.End(), func() {
		for i, p := range ports {
			p.SetRate(orig[i])
		}
		inj.emit(e.End(), "degrade-end", e)
	})
	return nil
}

func (inj *Injector) armEngine(e Event) error {
	var engines []int
	switch {
	case e.Target == "mt":
		for i := 0; i < inj.tgt.MT.Config().Ports; i++ {
			engines = append(engines, i)
		}
	case strings.HasPrefix(e.Target, "mt"):
		n, err := strconv.Atoi(e.Target[2:])
		if err != nil || n < 0 || n >= inj.tgt.MT.Config().Ports {
			return fmt.Errorf("bad engine target %q", e.Target)
		}
		engines = []int{n}
	default:
		return fmt.Errorf("engine faults target the middle tier (mt or mtN), got %q", e.Target)
	}
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.Start, func() {
		inj.emit(e.Start, "engine-down", e)
		for _, i := range engines {
			inj.tgt.MT.SetEngineDown(i, true)
		}
	})
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.End(), func() {
		for _, i := range engines {
			inj.tgt.MT.SetEngineDown(i, false)
		}
		inj.emit(e.End(), "engine-up", e)
	})
	return nil
}

// armRestart blackholes every middle-tier port for the window — a
// crash-restart of the middle-tier process. Placement and pending
// bookkeeping survive (durable metadata); in-flight transports ride
// go-back-N retransmission through short windows and are explicitly
// reconnected after long ones.
func (inj *Injector) armRestart(ls *lossSet, e Event) error {
	if e.Target != "mt" {
		return fmt.Errorf("restart targets the middle tier (mt), got %q", e.Target)
	}
	set := addrSet(inj.tgt.MT.Addrs())
	ls.rules = append(ls.rules,
		&lossRule{start: e.Start, end: e.End(), src: set, model: blockAll{}},
		&lossRule{start: e.Start, end: e.End(), dst: set, model: blockAll{}})
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.Start, func() { inj.emit(e.Start, "restart", e) })
	//cold fault bookkeeping: rare event, logging allocation tolerated
	inj.tgt.Env.At(e.End(), func() {
		if inj.tgt.Reconnect != nil {
			inj.tgt.Reconnect()
		}
		inj.emit(e.End(), "restart-done", e)
	})
	return nil
}

// resolveAddrs maps a spec target to fabric addresses. nil means
// wildcard ("*").
func (inj *Injector) resolveAddrs(target string) ([]netsim.Addr, error) {
	switch {
	case target == "*":
		return nil, nil
	case target == "mt":
		addrs := inj.tgt.MT.Addrs()
		if len(addrs) == 0 {
			return nil, fmt.Errorf("middle tier has no fabric addresses")
		}
		return addrs, nil
	case strings.HasPrefix(target, "mt"):
		n, err := strconv.Atoi(target[2:])
		addrs := inj.tgt.MT.Addrs()
		if err != nil || n < 0 || n >= len(addrs) {
			return nil, fmt.Errorf("bad middle-tier port %q", target)
		}
		return addrs[n : n+1], nil
	default:
		addr := netsim.Addr(target)
		if inj.tgt.Fabric.Port(addr) == nil {
			return nil, fmt.Errorf("no fabric port at %q", target)
		}
		return []netsim.Addr{addr}, nil
	}
}

// storageIndex parses "ssN" and bounds-checks it.
func (inj *Injector) storageIndex(target string) (int, error) {
	if !strings.HasPrefix(target, "ss") {
		return 0, fmt.Errorf("crash targets a storage server (ssN), got %q", target)
	}
	n, err := strconv.Atoi(target[2:])
	if err != nil || n < 0 || n >= len(inj.tgt.Storage) {
		return 0, fmt.Errorf("no storage server %q (%d attached)", target, len(inj.tgt.Storage))
	}
	return n, nil
}

// splitLink splits a directional "a->b" target.
func splitLink(target string) (src, dst string, ok bool) {
	i := strings.Index(target, "->")
	if i < 0 {
		return "", "", false
	}
	return strings.TrimSpace(target[:i]), strings.TrimSpace(target[i+2:]), true
}

// Report renders the schedule plus the middle tier's failure counters.
func (inj *Injector) Report() *metrics.Table {
	t := metrics.NewTable("fault schedule", "fault", "target", "window", "param")
	for _, e := range inj.sched.Events {
		param := "-"
		if e.Param != 0 { // exact zero means "param unset", never computed
			param = strconv.FormatFloat(e.Param, 'g', -1, 64)
		}
		t.AddRow(e.Kind.String(), e.Target,
			fmt.Sprintf("%.1f-%.1f ms", e.Start*1e3, e.End()*1e3), param)
	}
	mt := inj.tgt.MT
	t.AddNote("middle tier: %d degraded writes, %d unroutable, %d replicate retries (%.0f bytes), %d engine fallbacks, %d engine reroutes, %.0f rebuild bytes",
		mt.Degraded, mt.Unroutable, mt.ReplicateRetries, mt.RetryBytes,
		mt.EngineFallbacks, mt.EngineReroutes, mt.RebuildBytes)
	return t
}
