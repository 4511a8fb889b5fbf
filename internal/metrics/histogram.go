// Package metrics provides the measurement primitives used by the
// SmartDS experiments: log-bucketed latency histograms with percentile
// queries, windowed bandwidth meters, and formatted result tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed histogram tuned for latency recording. It
// covers [min, max) with `perDecade` buckets per decade, giving a
// relative quantile error of about 10^(1/perDecade)-1 (≈3.8% at 60/decade)
// while using constant memory regardless of sample count.
type Histogram struct {
	min, max  float64
	perDecade int
	buckets   []uint64
	under     uint64
	over      uint64
	count     uint64
	sum       float64
	maxSeen   float64
	minSeen   float64
}

// NewHistogram creates a histogram covering [min, max) seconds with the
// given bucket resolution per decade.
func NewHistogram(min, max float64, perDecade int) *Histogram {
	if min <= 0 || max <= min || perDecade <= 0 {
		panic("metrics: invalid histogram bounds")
	}
	decades := math.Log10(max / min)
	n := int(math.Ceil(decades*float64(perDecade))) + 1
	return &Histogram{
		min:       min,
		max:       max,
		perDecade: perDecade,
		buckets:   make([]uint64, n),
		minSeen:   math.Inf(1),
	}
}

// NewLatencyHistogram covers 100 ns .. 10 s, which spans every latency
// this repository produces, at 60 buckets/decade.
func NewLatencyHistogram() *Histogram { return NewHistogram(100e-9, 10, 60) }

func (h *Histogram) index(v float64) int {
	return int(math.Log10(v/h.min) * float64(h.perDecade))
}

// bucketValue returns the representative (geometric-mid) value of bucket i.
func (h *Histogram) bucketValue(i int) float64 {
	lo := h.min * math.Pow(10, float64(i)/float64(h.perDecade))
	hi := h.min * math.Pow(10, float64(i+1)/float64(h.perDecade))
	return math.Sqrt(lo * hi)
}

// Record adds one sample.
func (h *Histogram) Record(v float64) {
	h.count++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	switch {
	case v < h.min:
		h.under++
	case v >= h.max:
		h.over++
	default:
		i := h.index(v)
		if i >= len(h.buckets) {
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.maxSeen
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.minSeen
}

// Bucket is one cumulative histogram bucket: Count samples fell at or
// below UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// bucketUpper returns the exclusive upper boundary of bucket i.
func (h *Histogram) bucketUpper(i int) float64 {
	return h.min * math.Pow(10, float64(i+1)/float64(h.perDecade))
}

// Buckets returns the cumulative bucket view in ascending boundary
// order. The first bucket's boundary is the histogram minimum (it
// carries the under-range count), the last is +Inf (it carries the
// total count, including over-range samples). Counts are monotone
// non-decreasing.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.buckets)+2)
	cum := h.under
	out = append(out, Bucket{UpperBound: h.min, Count: cum})
	for i, c := range h.buckets {
		cum += c
		out = append(out, Bucket{UpperBound: h.bucketUpper(i), Count: cum})
	}
	out = append(out, Bucket{UpperBound: math.Inf(1), Count: h.count})
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) with the histogram's
// bucket resolution. Out-of-range samples clamp to the tracked extremes.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	cum := h.under
	if cum >= target {
		return h.minSeen
	}
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return h.bucketValue(i)
		}
	}
	return h.maxSeen
}

// P50, P99 and P999 are the percentiles the paper reports.
func (h *Histogram) P50() float64  { return h.Quantile(0.50) }
func (h *Histogram) P99() float64  { return h.Quantile(0.99) }
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }

// Merge adds all samples of other into h. The histograms must share the
// same geometry.
func (h *Histogram) Merge(other *Histogram) {
	if h.min != other.min || h.max != other.max || h.perDecade != other.perDecade { // geometry fields are set once from constants, never computed
		panic("metrics: merging histograms with different geometry")
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.under += other.under
	h.over += other.over
	h.count += other.count
	h.sum += other.sum
	if other.maxSeen > h.maxSeen {
		h.maxSeen = other.maxSeen
	}
	if other.minSeen < h.minSeen {
		h.minSeen = other.minSeen
	}
}

// Reset discards all samples, keeping the geometry.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.under, h.over, h.count = 0, 0, 0
	h.sum, h.maxSeen = 0, 0
	h.minSeen = math.Inf(1)
}

// Summary holds the standard latency digest the experiments print.
type Summary struct {
	Count uint64
	Mean  float64
	P50   float64
	P99   float64
	P999  float64
	Max   float64
}

// Summarize extracts a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.P50(),
		P99:   h.P99(),
		P999:  h.P999(),
		Max:   h.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d avg=%s p50=%s p99=%s p999=%s max=%s",
		s.Count, FormatDuration(s.Mean), FormatDuration(s.P50),
		FormatDuration(s.P99), FormatDuration(s.P999), FormatDuration(s.Max))
}

// ExactQuantile computes a quantile from a raw sample slice (sorted copy;
// used by tests to validate the histogram approximation).
func ExactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}
