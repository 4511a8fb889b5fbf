package telemetry

import (
	"github.com/disagg/smartds/internal/sim"
)

// Point is one time-series sample in virtual time.
type Point struct {
	At    float64 `json:"t"`
	Value float64 `json:"v"`
}

// Series is a bounded ring of samples. Once full, the oldest points
// are overwritten (and counted dropped) so long runs keep flat memory.
type Series struct {
	cap     int
	pts     []Point
	next    int
	wrapped bool
	dropped uint64
}

// NewSeries creates a ring holding up to capacity points.
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Series{cap: capacity, pts: make([]Point, 0, capacity)}
}

// Append records one sample.
func (s *Series) Append(at, v float64) {
	if len(s.pts) < s.cap {
		s.pts = append(s.pts, Point{At: at, Value: v})
		return
	}
	s.pts[s.next] = Point{At: at, Value: v}
	s.next = (s.next + 1) % s.cap
	s.wrapped = true
	s.dropped++
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.pts) }

// Dropped reports points overwritten by the ring.
func (s *Series) Dropped() uint64 { return s.dropped }

// Points returns the retained samples in chronological order.
func (s *Series) Points() []Point {
	if !s.wrapped {
		return append([]Point(nil), s.pts...)
	}
	out := make([]Point, 0, s.cap)
	out = append(out, s.pts[s.next:]...)
	out = append(out, s.pts[:s.next]...)
	return out
}

// Digest summarizes a series for the run report: enough to diff two
// runs without shipping every point.
type Digest struct {
	Points  int     `json:"points"`
	Dropped uint64  `json:"dropped,omitempty"`
	First   float64 `json:"first"`
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

// Digest computes the series summary (zero value when empty).
func (s *Series) Digest() Digest {
	pts := s.Points()
	d := Digest{Points: len(pts), Dropped: s.dropped}
	if len(pts) == 0 {
		return d
	}
	d.First = pts[0].Value
	d.Last = pts[len(pts)-1].Value
	d.Min = pts[0].Value
	d.Max = pts[0].Value
	sum := 0.0
	for _, p := range pts {
		if p.Value < d.Min {
			d.Min = p.Value
		}
		if p.Value > d.Max {
			d.Max = p.Value
		}
		sum += p.Value
	}
	d.Mean = sum / float64(len(pts))
	return d
}

// Sampler walks a metric set on a fixed virtual-time grid, appending
// each reading to its ring series.
type Sampler struct {
	env     *sim.Env
	metrics []*Metric
	samples uint64
}

// NewSampler prepares sampling for the given metrics on the
// sim.SampleInterval grid. Metrics gain a series ring on first use.
func (r *Registry) NewSampler(env *sim.Env, ms []*Metric) *Sampler {
	for _, m := range ms {
		if m.series == nil {
			m.series = NewSeries(seriesCap)
		}
	}
	return &Sampler{env: env, metrics: ms}
}

// Run samples on the virtual-time grid (start+i*interval] until the
// stop time, inclusive of one final sample at or past stop. The grid
// rides the environment's shared Ticker for the interval: all samplers
// (and the trace counter sampler) at the same cadence share one
// calendar entry per tick instead of each running its own timer chain.
// Scheduling stays on the deterministic sim calendar, so same-seed runs
// sample at identical instants.
func (s *Sampler) Run(stop float64) {
	if len(s.metrics) == 0 {
		return
	}
	s.env.Ticker().Subscribe(stop, s.sampleOnce)
}

// sampleOnce appends one reading per metric at the current instant.
//
//cold:periodic sampling; series growth is amortized and off the data path
func (s *Sampler) sampleOnce() {
	now := s.env.Now()
	s.samples++
	for _, m := range s.metrics {
		m.series.Append(now, m.Value())
	}
}

// Samples reports how many grid ticks have fired.
func (s *Sampler) Samples() uint64 { return s.samples }
