// Package trace mirrors the head-sampling setter of
// internal/trace/sampling.go (Tracer.SetSampling) with the defect the
// mutation audit planted there: a zero seed replaced by one read from
// crypto/rand, so a seed-0 traced run no longer replays. No test traces
// with seed 0, so randsrc is the only check that catches it.
package trace

import (
	crand "crypto/rand" // want `import of crypto/rand outside internal/rng`
	"encoding/binary"
)

type Tracer struct {
	sampleRate float64
	sampleSeed uint64
}

func (t *Tracer) SetSampling(rate float64, seed uint64) {
	if seed == 0 {
		var b [8]byte
		_, _ = crand.Read(b[:])
		seed = binary.LittleEndian.Uint64(b[:])
	}
	t.sampleRate = rate
	t.sampleSeed = seed
}
