package randsrc_test

import (
	"testing"

	"github.com/disagg/smartds/internal/analysis/analysistest"
	"github.com/disagg/smartds/internal/analysis/randsrc"
)

func Test(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), randsrc.Analyzer,
		"example.com/internal/randbad",
		"example.com/internal/rng",
	)
}

// TestZeroSeedFromCryptoRand pins the mutant only randsrc catches: a
// seed read from crypto/rand in the trace sampler.
func TestZeroSeedFromCryptoRand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), randsrc.Analyzer, "example.com/internal/trace")
}
