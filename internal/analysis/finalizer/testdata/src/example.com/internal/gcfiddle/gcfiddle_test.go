package gcfiddle

import (
	"runtime"
	"testing"
)

// Test files may pin GOMAXPROCS, as the lookahead and corpus tests do
// to cover one worker and several.
func TestPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
}
