// Package clockbad exercises every wallclock trigger.
package clockbad

import "time"

func bad() {
	_ = time.Now()                   // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond)     // want `wall-clock time\.Sleep`
	<-time.After(time.Second)        // want `wall-clock time\.After`
	_ = time.NewTimer(time.Second)   // want `wall-clock time\.NewTimer`
	_ = time.NewTicker(time.Second)  // want `wall-clock time\.NewTicker`
	_ = time.Since(time.Time{})      // want `wall-clock time\.Since` `time\.Time construction`
	var f func() time.Time = time.Now // want `wall-clock time\.Now`
	_ = f
}

func allowedDuration() time.Duration {
	// Duration parsing/formatting is virtual-time friendly and allowed.
	d, _ := time.ParseDuration("3ms")
	return d
}

func annotated() time.Time {
	//detcheck:wallclock host-facing progress line
	return time.Now()
}

// A trailing waiver covers only its own line: the call on the next
// line is still flagged.
func trailingWaiver() (time.Time, time.Time) {
	a := time.Now() //detcheck:wallclock host-facing progress line
	b := time.Now() // want `wall-clock time\.Now`
	return a, b
}
