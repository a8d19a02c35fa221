package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Scale describes a log-scale bucket layout: bucket i covers
// (Min·Factor^(i-1), Min·Factor^i], with bucket 0 absorbing everything
// ≤ Min and one extra overflow bucket above the last bound.
type Scale struct {
	// Min is the inclusive upper bound of the first bucket.
	Min float64
	// Factor is the geometric growth per bucket (> 1).
	Factor float64
	// Buckets is the number of finite buckets (≥ 1), excluding overflow.
	Buckets int
}

// DefaultScale covers 1..2^47 in factor-2 buckets — wide enough for
// nanosecond latencies from single cache hits to multi-hour sweeps, and
// for event-count size distributions.
func DefaultScale() Scale { return Scale{Min: 1, Factor: 2, Buckets: 48} }

// valid reports whether the scale is usable.
func (s Scale) valid() bool {
	return s.Min > 0 && s.Factor > 1 && s.Buckets >= 1
}

// layout is a scale's precomputed bucket bounds, shared by Histogram and
// LocalHistogram so both bucket every value identically.
type layout struct {
	scale        Scale
	invLogFactor float64
	pow2         bool      // Min 1, Factor 2: bucketIndex reduces to Frexp
	bounds       []float64 // inclusive upper bounds, len = Buckets
}

// newLayout precomputes a scale's bounds; an invalid scale falls back to
// DefaultScale.
func newLayout(s Scale) layout {
	if !s.valid() {
		s = DefaultScale()
	}
	l := layout{
		scale:        s,
		invLogFactor: 1 / math.Log(s.Factor),
		pow2:         s.Min == 1 && s.Factor == 2,
		bounds:       make([]float64, s.Buckets),
	}
	b := s.Min
	for i := range l.bounds {
		l.bounds[i] = b
		b *= s.Factor
	}
	return l
}

// Histogram is a concurrency-safe log-scale histogram tracking count,
// sum, min and max alongside per-bucket counts. Construct with
// NewHistogram; all methods are safe on a nil receiver.
type Histogram struct {
	layout
	counts  []atomic.Uint64 // len = Buckets+1, last is overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // stores math.Float64bits; +Inf when empty
	maxBits atomic.Uint64 // -Inf when empty
}

// NewHistogram builds a histogram; an invalid scale falls back to
// DefaultScale.
func NewHistogram(s Scale) *Histogram {
	l := newLayout(s)
	h := &Histogram{layout: l, counts: make([]atomic.Uint64, len(l.bounds)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value to its bucket (len(bounds) = overflow).
func (l *layout) bucketIndex(v float64) int {
	if v <= l.scale.Min {
		return 0
	}
	if l.pow2 {
		// Factor-2 buckets with Min 1: bucket i covers (2^(i-1), 2^i], so
		// the index is the binary exponent — exact, no log or fuzz guard.
		if math.IsInf(v, 1) {
			return len(l.bounds)
		}
		frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
		if frac == 0.5 {
			exp-- // exact power of two: inclusive upper bound
		}
		if exp > len(l.bounds) {
			exp = len(l.bounds)
		}
		return exp
	}
	idx := int(math.Ceil(math.Log(v/l.scale.Min) * l.invLogFactor))
	// Guard the float fuzz around exact bucket bounds: the bound is an
	// inclusive upper limit.
	if idx > 0 && idx <= len(l.bounds) && l.bounds[idx-1] >= v {
		idx--
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(l.bounds) {
		idx = len(l.bounds)
	}
	return idx
}

// Observe records one value. NaN is dropped; negative values clamp into
// the first bucket but still update min. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// atomicAddFloat adds delta to a float64 stored as bits.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations so far. Safe on a nil
// receiver; unlike Snapshot it allocates nothing, so per-epoch samplers
// can poll it from a hot loop.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values. Safe on a nil
// receiver and allocation-free, like Count.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LocalHistogram is Histogram's single-writer twin: the same buckets,
// Count, Sum and HistogramSnapshot over plain fields instead of atomics,
// for an observer that only its owning goroutine writes and reads, such
// as one simulation's DRAM queue-wait hook. It is not safe for
// concurrent use. Construct with NewLocalHistogram; all methods are safe
// on a nil receiver.
type LocalHistogram struct {
	layout
	counts   []uint64 // len = Buckets+1, last is overflow
	count    uint64
	sum      float64
	min, max float64 // +Inf/-Inf when empty
}

// NewLocalHistogram builds a single-writer histogram; an invalid scale
// falls back to DefaultScale.
func NewLocalHistogram(s Scale) *LocalHistogram {
	l := newLayout(s)
	return &LocalHistogram{
		layout: l,
		counts: make([]uint64, len(l.bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value exactly as Histogram.Observe does.
func (h *LocalHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[h.bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations so far.
func (h *LocalHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the running sum of observed values.
func (h *LocalHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Snapshot copies the histogram into the form Histogram.Snapshot returns.
func (h *LocalHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state with
// quantile estimation. Counts has one more element than Bounds: the
// final entry counts observations above the last bound.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot copies the histogram. Safe on a nil receiver (returns the
// zero snapshot). Under concurrent Observe calls the copy may lag by a
// handful of in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive Count from the bucket sum so Counts and Count agree even
	// when Observe races the copy.
	s.Count = total
	if total > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	return s
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by geometric
// interpolation inside the covering bucket, clamped to the observed
// [Min, Max]. Empty snapshots return 0. Estimates are monotonically
// non-decreasing in q.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next < target {
			cum = next
			continue
		}
		lo, hi := s.bucketRange(i)
		if hi <= lo {
			return clamp(lo, s.Min, s.Max)
		}
		p := (target - cum) / float64(c)
		var v float64
		if lo > 0 {
			v = lo * math.Pow(hi/lo, p) // geometric within a log bucket
		} else {
			v = lo + (hi-lo)*p
		}
		return clamp(v, s.Min, s.Max)
	}
	return s.Max
}

// bucketRange returns the value range covered by bucket i, tightened by
// the observed min/max at the edges.
func (s HistogramSnapshot) bucketRange(i int) (lo, hi float64) {
	if i == 0 {
		lo = s.Min
	} else {
		lo = s.Bounds[i-1]
	}
	if i < len(s.Bounds) {
		hi = s.Bounds[i]
	} else {
		hi = s.Max // overflow bucket
	}
	if hi > s.Max {
		hi = s.Max
	}
	if lo < s.Min {
		lo = s.Min
	}
	return lo, hi
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Merge folds a snapshot (e.g. a per-simulation histogram) into h. The
// snapshot's bucket layout must match h's scale.
func (h *Histogram) Merge(s HistogramSnapshot) error {
	if h == nil || s.Count == 0 {
		return nil
	}
	if len(s.Bounds) != len(h.bounds) || len(s.Counts) != len(h.counts) {
		return fmt.Errorf("telemetry: merge of mismatched histogram layout (%d/%d buckets, want %d/%d)",
			len(s.Bounds), len(s.Counts), len(h.bounds), len(h.counts))
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("telemetry: merge of mismatched histogram bound %d (%g, want %g)", i, b, h.bounds[i])
		}
	}
	for i, c := range s.Counts {
		if c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(s.Count)
	atomicAddFloat(&h.sumBits, s.Sum)
	atomicMinFloat(&h.minBits, s.Min)
	atomicMaxFloat(&h.maxBits, s.Max)
	return nil
}
