package hotalloc_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hotalloc.Analyzer,
		"example.com/hot/internal/sim",
		"example.com/hot/cold",
	)
}

// TestStaleEpochError pins the mutant only hotalloc catches: an error
// built on the rare stale-epoch branch of a //hot receive path.
func TestStaleEpochError(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hotalloc.Analyzer, "example.com/hot/internal/rdma")
}
