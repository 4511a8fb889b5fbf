package trace

// Head sampling: at cluster scale the tracer cannot afford a ring
// entry and an open-table insert for every stage of every request.
// The sampling decision is a pure function of (seed, correlation id) —
// a splitmix64 finalizer compared against the configured rate — so
// the set of kept requests is byte-identical across same-seed runs and
// identical no matter which pipeline stage asks. Call ForRequest once
// at the top of a request path: it returns the tracer itself when the
// request is sampled and nil otherwise, and every downstream
// Begin/End/Emit on the nil result is the zero-cost no-op the
// nil-*Tracer contract already guarantees.
//
// Tail keeps complement head sampling: requests the head sampler
// dropped but that turned out interesting (errors, p999 outliers,
// degraded placements) are recorded retroactively as a single span on
// the "tail" track, so the artifacts worth debugging survive even at
// 1% head rates.

// SetSampling configures head sampling. rate is the fraction of
// requests kept: >= 1 keeps everything (the default — a tracer that
// never saw SetSampling behaves exactly as before sampling existed),
// <= 0 keeps nothing. seed decorrelates the kept set across
// experiment seeds.
func (t *Tracer) SetSampling(rate float64, seed uint64) {
	if t == nil {
		return
	}
	t.sampleRate = rate
	t.sampleSeed = seed
	t.sampleSome = rate < 1
}

// SampleRate reports the configured head-sampling rate (1 when
// sampling was never configured).
func (t *Tracer) SampleRate() float64 {
	if t == nil || !t.sampleSome {
		return 1
	}
	return t.sampleRate
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash with no allocation and no shared state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampled reports the head-sampling decision for a correlation id.
// Deterministic: depends only on (seed, id, rate).
//
//hot:per-request sampling gate, pinned by TestUnsampledPathZeroAllocs
func (t *Tracer) Sampled(id uint64) bool {
	if t == nil {
		return false
	}
	if !t.sampleSome {
		return true
	}
	if t.sampleRate <= 0 {
		return false
	}
	// Top 53 bits of the hash → uniform float in [0, 1).
	u := float64(mix64(t.sampleSeed^id)>>11) / (1 << 53)
	return u < t.sampleRate
}

// ForRequest resolves the tracer a request path should record through:
// the tracer itself when the request is head-sampled, nil otherwise.
// The unsampled path costs one hash and one branch — no allocation, no
// map touch, no ring append — and at the default rate (>= 1) this is
// the identity, so full-sampling runs stay byte-identical to the
// pre-sampling tracer.
//
//hot:per-request sampling gate, pinned by TestUnsampledPathZeroAllocs
func (t *Tracer) ForRequest(id uint64) *Tracer {
	if t == nil {
		return nil
	}
	if !t.sampleSome {
		return t
	}
	if t.Sampled(id) {
		return t
	}
	return nil
}

// KeepTail retroactively records a request the head sampler dropped:
// one completed span on the "tail" track named by reason (e.g.
// "error", "p999"), covering [start, end]. The id ties it to exemplars
// and logs. Call only for unsampled requests — sampled ones
// already have their full stage tiling.
//
// The kept span is marked as the request's root (Req = id, KindRoot):
// a tail-kept request therefore always carries a complete — if
// single-segment — DAG, never a partial path, so critical-path
// analysis can tile it exactly without inventing stages head sampling
// never recorded.
func (t *Tracer) KeepTail(start, end float64, reason string, id uint64) {
	if t == nil {
		return
	}
	t.keptTail++
	t.record(Event{At: start, Component: "tail", Name: reason, Dur: end - start,
		ID: id, Req: id, Kind: KindRoot})
}

// KeptTail reports how many tail-based keeps were recorded.
func (t *Tracer) KeptTail() uint64 {
	if t == nil {
		return 0
	}
	return t.keptTail
}
