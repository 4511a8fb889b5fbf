package errdrop_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/errdrop"
)

func TestErrdrop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), errdrop.Analyzer,
		"example.com/internal/storage/errbad",
		"example.com/internal/util",
	)
}

// TestRebuildDropsRestoreError pins the mutant only errdrop catches: a
// discarded snapshot-restore error in the rebuild copy.
func TestRebuildDropsRestoreError(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), errdrop.Analyzer, "example.com/internal/middletier")
}
