//go:build go1.23

package sim

import "iter"

// Proc is a simulation process: a runtime coroutine that runs only
// while the scheduler has handed control to it. A Proc may block with
// Sleep, Wait, or any of the resource operations; at most one Proc runs
// at a time.
//
// Each Proc is an iter.Pull coroutine. Resuming it (next) and parking
// it (yield) are direct goroutine switches on the scheduler's thread:
// no P handoff, no futex wake, no spinning. A panic in a process body
// re-panics in Env.Run's caller, and runtime.Goexit propagates the same
// way.
type Proc struct {
	env   *Env
	name  string
	fn    func(p *Proc)
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	gen   uint64 // wait generation; bumped on every park
	done  bool
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process. The body fn starts running at the current
// virtual time (after the caller yields back to the scheduler). Go may
// be called before Env.Run, from scheduler callbacks, or from within
// another process.
//
// Finished processes park their coroutine and return to a free list, so
// workloads that spawn a process per request (every server loop in the
// cluster does) pay coroutine creation and closure allocation only up
// to the peak concurrency, not once per request. The start itself rides
// a pooled wake entry — a spawn is allocation-free in steady state.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
		p.name = name
		p.fn = fn
		p.done = false
	} else {
		p = &Proc{env: e, name: name, fn: fn}
		p.next, _ = iter.Pull(p.loop)
	}
	e.scheduleWake(e.now, wakeToken{p: p, gen: p.gen})
	return p
}

// loop is the coroutine body: run one process life, then yield awaiting
// reuse. The between-lives yield looks like a normal park to the
// scheduler; the generation bump invalidates any token minted in the
// previous life.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	e := p.env
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		p.done = true
		p.gen++
		e.freeProcs = append(e.freeProcs, p)
		yield(struct{}{})
	}
}

// park yields control back to the scheduler until woken. Each park
// consumes exactly one wake directed at the current generation.
func (p *Proc) park() {
	p.gen++
	p.yield(struct{}{})
}

// wakeToken identifies one specific park of one specific process, so a
// stale waker (e.g. a raced timeout) cannot wake the wrong park.
type wakeToken struct {
	p   *Proc
	gen uint64
}

// token captures the identity of the process's next park. It must be
// taken before handing the token to a waker and before calling park.
func (p *Proc) token() wakeToken { return wakeToken{p: p, gen: p.gen + 1} }

// wake schedules the process to resume now if it is still parked on the
// generation the token was taken for. Wakes ride pooled calendar
// entries — no closure, no allocation in steady state.
func (e *Env) wake(tk wakeToken) {
	e.scheduleWake(e.now, tk)
}

// Sleep suspends the process for d seconds of virtual time. Negative
// durations sleep zero time but still yield to the scheduler.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleWake(p.env.now+d, p.token())
	p.park()
}

// Yield lets other ready processes and events at the current instant run
// before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
