// Package rng provides the deterministic, splittable pseudo-random
// number generator used across the simulation. Every stochastic choice
// (arrival times, corpus sampling, replica placement, loss injection)
// draws from an rng.Source derived from a single root seed, so whole
// experiments replay bit-for-bit.
//
// The generator is xoshiro256**, seeded through SplitMix64, both public
// domain algorithms.
package rng

import "math"

// Source is a deterministic PRNG. It is not safe for concurrent use;
// the simulation is single-threaded by construction so this is fine.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New creates a Source from a 64-bit seed.
func New(seed uint64) *Source {
	var s Source
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Split derives an independent child generator. Each call yields a
// different child; parent and children remain decorrelated.
func (s *Source) Split() *Source {
	seed := s.Uint64() ^ 0xd2b74407b1ce6e93
	return New(seed)
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// Used for Poisson inter-arrival times in open-loop workloads.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Norm returns a normally distributed value (Box–Muller).
func (s *Source) Norm(mean, stddev float64) float64 {
	u1 := s.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Bytes fills b with random bytes.
func (s *Source) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := s.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	if i < len(b) {
		v := s.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Choice returns a uniformly random element index weighted by w. The
// weights must be non-negative and not all zero.
func (s *Source) Choice(w []float64) int {
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic("rng: negative weight")
		}
		total += v
	}
	if total <= 0 {
		panic("rng: all-zero weights")
	}
	target := s.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if target < acc {
			return i
		}
	}
	return len(w) - 1
}
