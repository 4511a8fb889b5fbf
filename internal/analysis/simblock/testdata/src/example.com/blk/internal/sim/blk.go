// Firing fixture for simblock: the package path must end in
// internal/sim so Env.Go / Env.At registrations mint roots; the sim
// core is not exempt, so the package's own sites report.
package sim

import (
	"os"
	"sync"
	"time"
)

// Env mimics the simulator environment's registration surface.
type Env struct{}

// Go spawns a process body.
func (e *Env) Go(name string, fn func(p *Proc)) {}

// At registers a timer callback.
func (e *Env) At(t float64, fn func()) {}

// Proc mimics a simulated process handle.
type Proc struct{}

var ch = make(chan int)
var wg sync.WaitGroup
var mu sync.Mutex

func setup(e *Env) {
	e.Go("w", worker)
	e.At(1, tick)
}

func worker(p *Proc) {
	time.Sleep(time.Millisecond) // want `time\.Sleep blocks in host time`
	ch <- 1                      // want `channel send may block`
	<-ch                         // want `channel receive may block`
	helper()
}

func tick() {
	wg.Wait() // want `WaitGroup\.Wait blocks`
	mu.Lock() // want `Mutex\.Lock may block`
	mu.Unlock()
	select { // want `select without default may block`
	case <-ch:
	}
	select { // non-blocking: has a default clause
	case v := <-ch:
		_ = v
	default:
	}
}

func helper() {
	f, _ := os.Open("x") // want `os\.Open performs host I/O`
	_ = f
	for range ch { // want `range over channel blocks`
		break
	}
}

func free() {
	time.Sleep(1) // unreachable from any root: no finding
}
