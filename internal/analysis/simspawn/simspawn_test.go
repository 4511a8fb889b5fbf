package simspawn_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/simspawn"
)

func Test(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), simspawn.Analyzer,
		"example.com/internal/spawnbad",
		"example.com/internal/sim",
	)
}

// TestNonBlockingFeed pins the mutant only simspawn catches: a
// non-blocking channel send in the storage write handler.
func TestNonBlockingFeed(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), simspawn.Analyzer, "example.com/internal/storage")
}
