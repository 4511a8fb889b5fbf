// Firing fixture for finalizer: GC and scheduler manipulation in a
// plain internal/ package. Informational reads (NumCPU, GOMAXPROCS(0),
// the pool sizing of internal/lz4/lookahead.go) and waived lines do not
// report.
package gcfiddle

import (
	"runtime"
	"runtime/debug"
)

func tune() {
	runtime.GC()                   // want `runtime\.GC manipulates`
	runtime.Gosched()              // want `runtime\.Gosched manipulates`
	runtime.GOMAXPROCS(1)          // want `runtime\.GOMAXPROCS manipulates`
	debug.SetGCPercent(-1)         // want `runtime/debug\.SetGCPercent manipulates`
	runtime.SetFinalizer(nil, nil) // want `runtime\.SetFinalizer manipulates`
	//detcheck:finalizer startup pinning before the measured region
	runtime.LockOSThread()
	_ = runtime.NumCPU()
	_ = runtime.GOMAXPROCS(0)
}
