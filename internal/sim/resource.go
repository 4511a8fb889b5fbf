package sim

// Resource is a counted FIFO resource: up to Slots processes hold it at
// once; the rest queue in arrival order. It models server pools, DMA
// queues, disk command slots, and similar bounded concurrency.
type Resource struct {
	env   *Env
	name  string
	slots int
	inUse int
	queue []*Event

	// accounting
	busyInt  float64 // integral of inUse over time
	last     Time
	acquires uint64
	waitTime float64 // total queueing delay across acquisitions
}

// NewResource creates a resource with the given number of slots.
func (e *Env) NewResource(name string, slots int) *Resource {
	if slots <= 0 {
		panic("sim: Resource slots must be positive")
	}
	return &Resource{env: e, name: name, slots: slots, last: e.now}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// InUse returns the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting acquirers.
func (r *Resource) QueueLen() int { return len(r.queue) }

func (r *Resource) account() {
	now := r.env.now
	r.busyInt += float64(r.inUse) * (now - r.last)
	r.last = now
}

// Acquire blocks until a slot is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	start := r.env.now
	if r.inUse < r.slots && len(r.queue) == 0 {
		r.account()
		r.inUse++
		r.acquires++
		return
	}
	ev := r.env.NewEvent()
	r.queue = append(r.queue, ev)
	p.Wait(ev)
	r.acquires++
	r.waitTime += r.env.now - start
}

// Release frees a slot, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.account()
	if len(r.queue) > 0 {
		// Hand the slot directly to the next waiter; inUse stays.
		ev := r.queue[0]
		r.queue[0] = nil // unpin the fired event from the backing array
		r.queue = r.queue[1:]
		ev.Trigger(nil)
		return
	}
	r.inUse--
}

// ResourceStats is a snapshot of utilization counters.
type ResourceStats struct {
	BusyIntegral float64 // slot-seconds of occupancy
	Acquires     uint64
	WaitTime     float64
	At           Time
}

// Snapshot returns cumulative counters at the current instant.
func (r *Resource) Snapshot() ResourceStats {
	r.account()
	return ResourceStats{BusyIntegral: r.busyInt, Acquires: r.acquires, WaitTime: r.waitTime, At: r.env.now}
}
