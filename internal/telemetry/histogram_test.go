package telemetry

import (
	"math"
	"reflect"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(Scale{Min: 1, Factor: 2, Buckets: 4}) // bounds 1,2,4,8 + overflow
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1, 0}, // ≤ Min → first bucket
		{1.0001, 1}, {2, 1}, // bounds are inclusive upper limits
		{2.0001, 2}, {4, 2},
		{4.0001, 3}, {8, 3},
		{8.0001, 4}, {1e9, 4}, // overflow
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestHistogramPow2FastPathSemantics checks the Frexp-based factor-2
// fast path against the bucket definition directly — bucket i covers
// (bound[i-1], bound[i]] — across magnitudes, exact powers of two
// (inclusive upper bounds), nearby off-by-one-ulp values and overflow.
func TestHistogramPow2FastPathSemantics(t *testing.T) {
	h := NewHistogram(DefaultScale())
	if !h.pow2 {
		t.Fatal("default scale did not select the pow2 fast path")
	}
	check := func(v float64) {
		t.Helper()
		idx := h.bucketIndex(v)
		switch {
		case idx == 0:
			if v > h.bounds[0] {
				t.Errorf("bucketIndex(%g) = 0, but %g > bound %g", v, v, h.bounds[0])
			}
		case idx == len(h.bounds):
			if v <= h.bounds[len(h.bounds)-1] {
				t.Errorf("bucketIndex(%g) = overflow, but %g ≤ last bound %g", v, v, h.bounds[len(h.bounds)-1])
			}
		default:
			if !(h.bounds[idx-1] < v && v <= h.bounds[idx]) {
				t.Errorf("bucketIndex(%g) = %d, but %g ∉ (%g, %g]", v, idx, v, h.bounds[idx-1], h.bounds[idx])
			}
		}
	}
	for exp := -2; exp < 50; exp++ {
		p := math.Ldexp(1, exp)
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), p * 1.5} {
			check(v)
		}
	}
	check(math.Inf(1))
	if got := h.bucketIndex(math.Inf(1)); got != len(h.bounds) {
		t.Errorf("bucketIndex(+Inf) = %d, want overflow %d", got, len(h.bounds))
	}
}

func TestHistogramSnapshotStats(t *testing.T) {
	h := NewHistogram(DefaultScale())
	for _, v := range []float64{3, 1, 100, 7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("Count = %d, want 4", s.Count)
	}
	if s.Sum != 111 {
		t.Errorf("Sum = %g, want 111", s.Sum)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("Min/Max = %g/%g, want 1/100", s.Min, s.Max)
	}
	if got := s.Mean(); got != 111.0/4 {
		t.Errorf("Mean = %g", got)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != Count %d", bucketTotal, s.Count)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := NewHistogram(DefaultScale())
	// A skewed distribution spanning several octaves.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i * i % 7919))
	}
	s := h.Snapshot()
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%g) = %g < previous %g: not monotonic", q, v, prev)
		}
		prev = v
	}
	if got := s.Quantile(0); got != s.Min {
		t.Errorf("Quantile(0) = %g, want Min %g", got, s.Min)
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("Quantile(1) = %g, want Max %g", got, s.Max)
	}
	// The median of 1000 samples must sit inside the observed range and
	// within a bucket factor of the exact value.
	if med := s.Quantile(0.5); med < s.Min || med > s.Max {
		t.Errorf("median %g outside [%g, %g]", med, s.Min, s.Max)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	s := NewHistogram(DefaultScale()).Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(DefaultScale())
	b := NewHistogram(DefaultScale())
	for _, v := range []float64{1, 10, 100} {
		a.Observe(v)
	}
	for _, v := range []float64{5, 50, 5000} {
		b.Observe(v)
	}
	if err := a.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s := a.Snapshot()
	if s.Count != 6 {
		t.Errorf("merged Count = %d, want 6", s.Count)
	}
	if s.Sum != 5166 {
		t.Errorf("merged Sum = %g, want 5166", s.Sum)
	}
	if s.Min != 1 || s.Max != 5000 {
		t.Errorf("merged Min/Max = %g/%g, want 1/5000", s.Min, s.Max)
	}

	// Mismatched layouts must be rejected.
	other := NewHistogram(Scale{Min: 1, Factor: 4, Buckets: 8})
	other.Observe(3)
	if err := a.Merge(other.Snapshot()); err == nil {
		t.Error("merge of mismatched layout did not error")
	}
	// Merging an empty snapshot is a no-op, not an error.
	if err := a.Merge(HistogramSnapshot{}); err != nil {
		t.Errorf("empty merge errored: %v", err)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil Snapshot Count = %d", s.Count)
	}
	if err := h.Merge(HistogramSnapshot{Count: 3}); err != nil {
		t.Errorf("nil Merge errored: %v", err)
	}
}

func TestHistogramInvalidScaleFallsBack(t *testing.T) {
	h := NewHistogram(Scale{})
	h.Observe(42)
	if got := h.Snapshot().Count; got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
	if len(h.bounds) != DefaultScale().Buckets {
		t.Errorf("bounds len = %d, want default %d", len(h.bounds), DefaultScale().Buckets)
	}
}

// TestLocalHistogramMatchesHistogram: the single-writer twin must bucket,
// count, sum and snapshot every value exactly as the atomic histogram
// does, on both the power-of-two fast path and a general scale.
func TestLocalHistogramMatchesHistogram(t *testing.T) {
	vals := []float64{-3, 0, 0.25, 1, 1.5, 2, 3, 1024, 1025, 7e12, math.Inf(1), math.NaN(), 17.25}
	for _, s := range []Scale{DefaultScale(), {Min: 10, Factor: 3, Buckets: 6}, {}} {
		h, l := NewHistogram(s), NewLocalHistogram(s)
		if !reflect.DeepEqual(h.Snapshot(), l.Snapshot()) {
			t.Errorf("%+v: empty snapshots differ", s)
		}
		for _, v := range vals {
			h.Observe(v)
			l.Observe(v)
			if h.Count() != l.Count() || math.Float64bits(h.Sum()) != math.Float64bits(l.Sum()) {
				t.Fatalf("%+v after %g: count/sum %d/%g, local %d/%g", s, v, h.Count(), h.Sum(), l.Count(), l.Sum())
			}
		}
		if hs, ls := h.Snapshot(), l.Snapshot(); !reflect.DeepEqual(hs, ls) {
			t.Errorf("%+v: snapshots differ\natomic: %+v\nlocal:  %+v", s, hs, ls)
		}
	}
	var nilLocal *LocalHistogram
	nilLocal.Observe(1) // must not panic
	if nilLocal.Count() != 0 || nilLocal.Sum() != 0 || nilLocal.Snapshot().Count != 0 {
		t.Error("nil LocalHistogram is not empty")
	}
}
