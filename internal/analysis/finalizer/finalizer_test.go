package finalizer_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/finalizer"
)

func TestFinalizer(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), finalizer.Analyzer,
		"example.com/internal/gcfiddle",
		"example.com/x/internal/sim",
	)
}

// TestCompactionForcesGC pins the mutant only finalizer catches: a
// runtime.GC call in chunk-store compaction.
func TestCompactionForcesGC(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), finalizer.Analyzer, "example.com/internal/storage")
}
