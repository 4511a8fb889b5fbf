// Package sim mirrors the crash rebuild of internal/middletier/
// failover.go (Server.RebuildServer), reached from the "faults.rebuild"
// proc body of internal/faults/faults.go, with the defect the mutation
// audit planted there: the rebuild counter guarded by a sync.Mutex.
// Nothing contends for the lock, so every test passes, and neither
// wallclock nor simspawn looks at locks; simblock is the only check
// that catches it. The package path ends in internal/sim so the
// Env.Go registration mints the root.
package sim

import "sync"

type Env struct{}

func (e *Env) Go(name string, fn func(p *Proc)) {}

type Proc struct{}

func (p *Proc) Sleep(d float64) {}

type Server struct{ RebuildBytes float64 }

var rebuildMu sync.Mutex

func (s *Server) RebuildServer(p *Proc, total float64) float64 {
	p.Sleep(total)
	rebuildMu.Lock() // want `sync Mutex\.Lock may block on the host scheduler`
	s.RebuildBytes += total
	rebuildMu.Unlock()
	return total
}

func armCrash(env *Env, s *Server) {
	env.Go("faults.rebuild", func(p *Proc) { s.RebuildServer(p, 1) })
}
