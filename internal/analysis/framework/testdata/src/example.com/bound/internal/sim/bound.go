// Package sim is the bound-field fixture: a process body and a timer
// callback bound once into struct fields, as pooled records bind them,
// and registered through those fields. The package path ends in
// internal/sim so the Env registration methods are recognized.
package sim

// Env mimics the simulator environment's registration surface.
type Env struct{}

// After registers a timer callback.
func (e *Env) After(d float64, fn func()) {}

// Go spawns a process body.
func (e *Env) Go(name string, fn func(p *Proc)) {}

// Proc mimics a simulated process handle.
type Proc struct{}

type op struct {
	env    *Env
	runFn  func(*Proc)
	tickFn func()
}

func newOp(e *Env) *op {
	o := &op{env: e}
	o.runFn, o.tickFn = o.run, o.tick
	return o
}

func (o *op) start() {
	o.env.Go("op", o.runFn)
	o.env.After(1, o.tickFn)
}

func (o *op) run(p *Proc) { work() }

func (o *op) tick() {}

func work() {}

// unbound has run's shape, but the field it is stored in is never
// registered, so it is no root; neither is the literal.
type holder struct{ fn func(*Proc) }

func bind(h *holder) {
	h.fn = unbound
	h.fn = func(p *Proc) {}
}

func unbound(p *Proc) {}
