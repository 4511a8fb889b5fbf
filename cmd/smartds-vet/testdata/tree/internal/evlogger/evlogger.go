// Package evlogger violates the maporder invariant the way a naive
// structured logger would: formatting a label map straight into the
// line buffer leaks Go's randomized iteration order into its bytes,
// which breaks the byte-determinism contract every artifact keeps (the
// telemetry package sorts label sets before it renders them).
package evlogger

import "strings"

// Line formats one structured event with its labels.
func Line(msg string, labels map[string]string) string {
	var b strings.Builder
	b.WriteString(msg)
	for k, v := range labels {
		b.WriteString(" " + k + "=" + v)
	}
	return b.String()
}
