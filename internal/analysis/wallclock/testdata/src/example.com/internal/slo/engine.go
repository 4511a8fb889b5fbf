// Package slo mirrors the burn-rate alert of internal/slo/engine.go
// (Engine.tick) with the defect the mutation audit planted there: the
// alert's detail stamped with the host clock. Fault-free runs fire no
// alert and no test compares an alert's detail across runs, so
// wallclock is the only check that catches it.
package slo

import (
	"fmt"
	"time"
)

type Alert struct {
	At     float64
	Detail string
}

type Engine struct {
	now    float64
	alerts []Alert
}

func (e *Engine) tick(burnShort, burnLong, threshold float64) {
	e.alerts = append(e.alerts, Alert{
		At: e.now,
		Detail: fmt.Sprintf("burn %.3gx/%.3gx (threshold %g) at %s",
			burnShort, burnLong, threshold, time.Now().Format(time.RFC3339)), // want `wall-clock time\.Now in simulation code`
	})
}
