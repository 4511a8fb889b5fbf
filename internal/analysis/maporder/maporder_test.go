package maporder_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/maporder"
)

func Test(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), maporder.Analyzer,
		"example.com/internal/mapfix",
	)
}

// TestFoldedStacksUnsorted pins the mutant only maporder catches
// reliably: folded critpath stacks written without sorting.
func TestFoldedStacksUnsorted(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), maporder.Analyzer, "example.com/internal/critpath")
}
