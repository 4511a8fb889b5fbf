// Firing fixture for finalizer: the sim core gets no exemption —
// scheduler tuning there is as unreplayable as anywhere else.
package sim

import "runtime"

func pin() { runtime.GOMAXPROCS(1) } // want `runtime\.GOMAXPROCS manipulates`
