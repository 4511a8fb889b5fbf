package sim

import "math"

// PSLink models a bandwidth resource under processor sharing: the rate
// is divided among all in-flight transfers in proportion to their
// weights, optionally capped per flow. This is the standard fluid model
// for a shared bus, PCIe link, memory channel group, or network port.
//
// The uncapped case (every production link) runs on virtual service
// time, WFQ-style: the link tracks the cumulative normalized service
//
//	S(t) = ∫ rate/weightSum dt
//
// and each job gets a fixed finish tag finishS = S(start) + bytes/weight
// at admission. A job is done exactly when S reaches its tag, so
// advancing the link is O(1) — bump S — and the next completion is a
// peek at a min-heap ordered by tag. Without this, every Start and
// every completion rescans all in-flight jobs, which turns busy links
// (a NIC port with dozens of concurrent transfers) into an O(n²) hot
// spot.
//
// The link is allocation-free in steady state: completed psJobs return
// to a per-link pool, scratch buffers are reused across calls, and the
// pending completion check is re-keyed in place on the calendar rather
// than cancelled and scheduled afresh. A job completes either an Event
// (for processes that Wait on a transfer) or a caller-bound func()
// (StartFunc), which costs no Event at all.
type PSLink struct {
	env     *Env
	name    string
	rate    float64 // bytes/second aggregate capacity
	flowCap float64 // max bytes/second any single flow may get; 0 = unlimited

	// jobs holds the in-flight transfers: a min-heap on finishS in the
	// uncapped mode, plain insertion order in the capped mode.
	jobs      []*psJob
	weightSum float64
	virt      float64 // cumulative normalized service S (uncapped mode)
	jobSeq    uint64  // admission order, for deterministic completion ties
	last      Time
	timer     Timer

	// accounting
	work      float64 // total bytes moved (including partial progress)
	busy      float64 // total seconds with >=1 active job
	busySince Time

	// scratch buffers and pools (reused across calls, never retained)
	completeFn func()
	rates      []float64
	uncapped   []int
	finished   []*psJob
	freeJobs   []*psJob
}

type psJob struct {
	finishS   float64 // virtual finish tag (uncapped mode)
	remaining float64 // bytes left (capped mode)
	weight    float64
	seq       uint64
	// The completion: ev when set, else fn (nil for a transfer that
	// only occupies the link).
	ev *Event
	fn func()
}

// NewPSLink creates a processor-sharing link with the given aggregate
// rate in bytes/second. flowCap limits the rate of any single transfer
// (0 disables the cap).
func (e *Env) NewPSLink(name string, rate, flowCap float64) *PSLink {
	if rate <= 0 {
		panic("sim: PSLink rate must be positive")
	}
	l := &PSLink{
		env:     e,
		name:    name,
		rate:    rate,
		flowCap: flowCap,
		last:    e.now,
	}
	l.completeFn = l.complete
	return l
}

// Name returns the link name.
func (l *PSLink) Name() string { return l.name }

// Rate returns the aggregate capacity in bytes/second.
func (l *PSLink) Rate() float64 { return l.rate }

// SetRate changes the aggregate capacity mid-run (link degradation
// faults): progress accrued so far is applied at the old rate, and
// in-flight transfers continue at the new one. Virtual finish tags are
// rate-independent, so in the uncapped mode only the clock-time
// projection of the next completion changes.
func (l *PSLink) SetRate(rate float64) {
	if rate <= 0 {
		panic("sim: PSLink rate must be positive")
	}
	l.advance()
	l.rate = rate
	l.reschedule()
}

// InFlight returns the number of active transfers.
func (l *PSLink) InFlight() int { return len(l.jobs) }

// jobRates returns the current per-job rates, index-aligned with
// l.jobs, in a scratch buffer valid until the next jobRates call.
// Capped mode only. Capacity is assigned by water-filling: flows whose
// fair share exceeds flowCap are pinned at the cap and the residual is
// re-shared among the remaining flows (iterating, since a larger share
// may push further flows to the cap) — so a capped flow never strands
// capacity other flows could use.
func (l *PSLink) jobRates() []float64 {
	if cap(l.rates) < len(l.jobs) {
		//detcheck:hotalloc capped-mode scratch growth: doubles to the peak job count, then retained
		l.rates = make([]float64, len(l.jobs)*2)
	}
	rates := l.rates[:len(l.jobs)]
	for i := range rates {
		rates[i] = 0
	}
	if len(l.jobs) == 0 {
		return rates
	}
	remaining := l.rate
	uncapped := l.uncapped[:0]
	for i := range l.jobs {
		//detcheck:hotalloc capped-mode scratch growth: capacity is retained in l.uncapped
		uncapped = append(uncapped, i)
	}
	for len(uncapped) > 0 && remaining > 0 {
		wsum := 0.0
		for _, i := range uncapped {
			wsum += l.jobs[i].weight
		}
		if wsum <= 0 {
			break
		}
		newlyCapped := false
		kept := uncapped[:0]
		for _, i := range uncapped {
			share := remaining * l.jobs[i].weight / wsum
			if share >= l.flowCap {
				rates[i] = l.flowCap
				newlyCapped = true
			} else {
				//detcheck:hotalloc in-place filter of uncapped: never outgrows its backing array
				kept = append(kept, i)
			}
		}
		uncapped = kept
		if newlyCapped {
			// Recompute the pool left for the still-uncapped flows.
			remaining = l.rate
			for i := range l.jobs {
				if rates[i] > 0 {
					remaining -= rates[i]
				}
			}
			if remaining < 0 {
				remaining = 0
			}
			continue
		}
		// No flow hit the cap: the shares are final.
		for _, i := range uncapped {
			rates[i] = remaining * l.jobs[i].weight / wsum
		}
		break
	}
	l.uncapped = uncapped[:0]
	return rates
}

// advance applies progress for the time since the last update.
func (l *PSLink) advance() {
	now := l.env.now
	l.work += l.progress(now-l.last, true)
	l.last = now
}

// progress returns the bytes the link moves in the dt after its last
// update, and with apply set applies that progress to the jobs. In the
// uncapped mode this is O(1): between events every in-flight job has
// work left, so the link moves bytes at its full rate and the
// normalized service grows at rate/weightSum.
func (l *PSLink) progress(dt float64, apply bool) float64 {
	if dt <= 0 || len(l.jobs) == 0 {
		return 0
	}
	if l.flowCap <= 0 {
		if l.weightSum <= 0 {
			return 0
		}
		if apply {
			l.virt += l.rate / l.weightSum * dt
		}
		return l.rate * dt
	}
	moved := 0.0
	for i, r := range l.jobRates() {
		prog := min(dt*r, l.jobs[i].remaining)
		if apply {
			l.jobs[i].remaining -= prog
		}
		moved += prog
	}
	return moved
}

// reschedule moves the pending completion check to the earliest
// projected job completion, or cancels it when nothing can complete.
//
//hot:per-transfer link spine, pinned by TestPSLinkCallbackChurnZeroAllocs
func (l *PSLink) reschedule() {
	next, ok := l.nextCompletion()
	if !ok {
		l.timer.Cancel()
		l.timer = Timer{}
		return
	}
	l.timer = l.env.rearm(l.timer, l.env.now+next, l.completeFn)
}

// nextCompletion returns the delay until the earliest projected job
// completion; ok is false when no job is making progress.
func (l *PSLink) nextCompletion() (next float64, ok bool) {
	if len(l.jobs) == 0 {
		return 0, false
	}
	if l.flowCap <= 0 {
		if l.weightSum <= 0 {
			return 0, false
		}
		next = (l.jobs[0].finishS - l.virt) * l.weightSum / l.rate
		if next < 0 {
			next = 0
		}
		return next, true
	}
	next = math.Inf(1)
	rates := l.jobRates()
	for i, j := range l.jobs {
		r := rates[i]
		if r <= 0 {
			continue
		}
		if t := j.remaining / r; t < next {
			next = t
		}
	}
	return next, !math.IsInf(next, 1)
}

// complete fires at a projected completion instant: it advances the
// link, finishes the jobs that are done, and reschedules. Finished
// jobs fire their completions in admission order, so same-instant
// completions keep a deterministic, insertion-ordered sequence
// regardless of heap layout.
//
//hot:per-transfer link spine, pinned by TestPSLinkCallbackChurnZeroAllocs
func (l *PSLink) complete() {
	l.timer = Timer{}
	l.advance()
	const eps = 1e-6 // bytes; transfers are whole bytes, fluid-modeled
	now := l.env.now
	finished := l.finished[:0]
	if l.flowCap <= 0 {
		for len(l.jobs) > 0 {
			top := l.jobs[0]
			if (top.finishS-l.virt)*top.weight > eps {
				// Guard against float livelock: if the next completion
				// instant is not representable past `now`, the leftover
				// work is below the clock's resolution — finish it too.
				if l.weightSum <= 0 {
					break
				}
				if next := (top.finishS - l.virt) * l.weightSum / l.rate; now+next > now {
					break
				}
			}
			l.popMinJob()
			l.weightSum -= top.weight
			//detcheck:hotalloc scratch growth: capacity is retained in l.finished across calls
			finished = append(finished, top)
		}
		// Restore admission order for the triggers below.
		for i := 1; i < len(finished); i++ {
			for k := i; k > 0 && finished[k].seq < finished[k-1].seq; k-- {
				finished[k], finished[k-1] = finished[k-1], finished[k]
			}
		}
	} else {
		rates := l.jobRates()
		kept := l.jobs[:0]
		for i, j := range l.jobs {
			done := j.remaining <= eps
			if !done && rates[i] > 0 && now+j.remaining/rates[i] <= now {
				done = true
			}
			if done {
				//detcheck:hotalloc scratch growth: capacity is retained in l.finished across calls
				finished = append(finished, j)
				l.weightSum -= j.weight
			} else {
				//detcheck:hotalloc in-place filter of l.jobs: never outgrows its backing array
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(l.jobs); i++ {
			l.jobs[i] = nil
		}
		l.jobs = kept
	}
	if len(l.jobs) == 0 {
		// Kill accumulated float error and keep the virtual clock small.
		l.weightSum = 0
		l.virt = 0
		l.busy += l.env.now - l.busySince
	}
	l.reschedule()
	for _, j := range finished {
		ev, fn := j.ev, j.fn
		j.ev, j.fn = nil, nil
		//detcheck:hotalloc free-list growth mirrors the pool-miss warmup; steady state reuses capacity
		l.freeJobs = append(l.freeJobs, j)
		if ev != nil {
			ev.Trigger(nil)
		} else if fn != nil {
			fn()
		}
	}
	l.finished = finished[:0]
}

// pushJob inserts a job into the finish-tag min-heap (uncapped mode).
func (l *PSLink) pushJob(j *psJob) {
	//detcheck:hotalloc amortized heap growth; capacity is retained across pops
	l.jobs = append(l.jobs, j)
	i := len(l.jobs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if l.jobs[parent].finishS <= l.jobs[i].finishS {
			break
		}
		l.jobs[parent], l.jobs[i] = l.jobs[i], l.jobs[parent]
		i = parent
	}
}

// popMinJob removes and returns the job with the smallest finish tag.
func (l *PSLink) popMinJob() *psJob {
	top := l.jobs[0]
	n := len(l.jobs) - 1
	l.jobs[0] = l.jobs[n]
	l.jobs[n] = nil
	l.jobs = l.jobs[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && l.jobs[c+1].finishS < l.jobs[c].finishS {
			c++
		}
		if l.jobs[i].finishS <= l.jobs[c].finishS {
			break
		}
		l.jobs[i], l.jobs[c] = l.jobs[c], l.jobs[i]
		i = c
	}
	return top
}

// StartWeighted begins a transfer of the given size and weight without
// blocking; the returned event fires on completion.
func (l *PSLink) StartWeighted(bytes, weight float64) *Event {
	ev := l.env.NewEvent()
	if bytes <= 0 {
		ev.Trigger(nil)
		return ev
	}
	l.start(bytes, weight, ev, nil)
	return ev
}

// StartFunc begins a unit-weight transfer without blocking and calls
// done, if non-nil, when it completes, at the point in the completion
// order where Start's event would fire. A transfer of no bytes calls
// done at once. Callers that only need a callback use it to skip the
// Event.
//
//hot:per-transfer link spine, pinned by TestPSLinkCallbackChurnZeroAllocs
func (l *PSLink) StartFunc(bytes float64, done func()) {
	if bytes <= 0 {
		if done != nil {
			done()
		}
		return
	}
	l.start(bytes, 1, nil, done)
}

// start admits a job that completes ev or calls fn.
//
//hot:per-transfer link spine, pinned by TestPSLinkCallbackChurnZeroAllocs
func (l *PSLink) start(bytes, weight float64, ev *Event, fn func()) {
	if weight <= 0 {
		weight = 1
	}
	l.advance()
	if len(l.jobs) == 0 {
		l.busySince = l.env.now
	}
	var j *psJob
	if n := len(l.freeJobs); n > 0 {
		j = l.freeJobs[n-1]
		l.freeJobs[n-1] = nil
		l.freeJobs = l.freeJobs[:n-1]
	} else {
		//detcheck:hotalloc pool miss: warmup-only, steady state recycles via freeJobs
		j = &psJob{}
	}
	j.weight = weight
	j.ev = ev
	j.fn = fn
	l.jobSeq++
	j.seq = l.jobSeq
	if l.flowCap <= 0 {
		j.finishS = l.virt + bytes/weight
		l.pushJob(j)
	} else {
		j.remaining = bytes
		//detcheck:hotalloc amortized growth; capacity is retained across completions
		l.jobs = append(l.jobs, j)
	}
	l.weightSum += weight
	l.reschedule()
}

// Start begins a unit-weight transfer without blocking.
func (l *PSLink) Start(bytes float64) *Event { return l.StartWeighted(bytes, 1) }

// Transfer moves bytes across the link, blocking the process until the
// transfer completes under processor sharing.
func (l *PSLink) Transfer(p *Proc, bytes float64) {
	p.Wait(l.Start(bytes))
}

// Stats is a snapshot of the link's activity counters.
type LinkStats struct {
	Work     float64 // bytes moved so far (fluid progress)
	BusyTime float64 // seconds with at least one active transfer
	At       Time    // snapshot time
}

// Snapshot returns cumulative counters at the current instant. Callers
// diff two snapshots to compute bandwidth over a window. It is a pure
// read: progress since the last update is reported, not applied, so
// sampling never splits the virtual-time integration.
func (l *PSLink) Snapshot() LinkStats {
	work := l.work + l.progress(l.env.now-l.last, false)
	busy := l.busy
	if len(l.jobs) > 0 {
		busy += l.env.now - l.busySince
	}
	return LinkStats{Work: work, BusyTime: busy, At: l.env.now}
}

// BandwidthBetween returns the average bytes/second moved between two
// snapshots.
func BandwidthBetween(a, b LinkStats) float64 {
	dt := b.At - a.At
	if dt <= 0 {
		return 0
	}
	return (b.Work - a.Work) / dt
}
