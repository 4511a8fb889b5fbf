package simblock_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/simblock"
)

func TestSimblock(t *testing.T) {
	// The fixture lives under internal/sim (roots come from Env
	// registrations there), and its own blocking sites still report.
	analysistest.Run(t, analysistest.TestData(), simblock.Analyzer, "example.com/blk/internal/sim")
}
