package wallclock_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/wallclock"
)

func Test(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer,
		"example.com/internal/clockbad",
		"example.com/cmd/clockok",
	)
}

// TestAlertStampedWithHostTime pins the mutant only wallclock catches:
// an SLO alert detail stamped with time.Now.
func TestAlertStampedWithHostTime(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer, "example.com/internal/slo")
}
