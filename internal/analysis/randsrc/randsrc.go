// Package randsrc forbids importing the standard randomness packages
// outside internal/rng. Every stochastic choice in the simulator must
// flow from the seeded, splittable xoshiro source so whole experiments
// replay bit-for-bit from one root seed; math/rand has global state,
// math/rand/v2 auto-seeds, and crypto/rand is nondeterministic by
// design.
package randsrc

import (
	"strings"

	"github.com/disagg/smartds/internal/analysis/framework"
)

// Analyzer is the randsrc check.
var Analyzer = &framework.Analyzer{
	Name: "randsrc",
	Doc: "forbid importing math/rand, math/rand/v2 and crypto/rand outside internal/rng; " +
		"all randomness must come from the seeded rng.Source",
	Run: run,
}

// banned lists the randomness packages; only internal/rng, which
// wraps the seeded source, may import them.
var banned = map[string]bool{"math/rand": true, "math/rand/v2": true, "crypto/rand": true}

func run(pass *framework.Pass) error {
	if framework.PathHasSuffixSegments(pass.PkgPath, "internal/rng") {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !banned[path] {
				continue
			}
			if pass.Suppressed("randsrc", imp.Pos()) {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import of %s outside internal/rng: draw randomness from the seeded rng.Source "+
					"so runs replay bit-for-bit", path)
		}
	}
	return nil
}
