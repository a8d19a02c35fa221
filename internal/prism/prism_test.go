package prism

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nvmllc/internal/trace"
)

func TestEntropyUniform(t *testing.T) {
	// N equally likely addresses have entropy log2(N).
	for _, n := range []int{1, 2, 4, 256, 1024} {
		counts := make(map[uint64]uint64)
		for i := 0; i < n; i++ {
			counts[uint64(i)*64] = 7
		}
		want := math.Log2(float64(n))
		if got := Entropy(counts); math.Abs(got-want) > 1e-9 {
			t.Errorf("Entropy(uniform %d) = %g, want %g", n, got, want)
		}
	}
}

func TestEntropyEmptyAndSingle(t *testing.T) {
	if got := Entropy(nil); got != 0 {
		t.Errorf("Entropy(nil) = %g, want 0", got)
	}
	if got := Entropy(map[uint64]uint64{42: 1000}); got != 0 {
		t.Errorf("Entropy(single) = %g, want 0", got)
	}
}

func TestEntropySkewedBelowUniform(t *testing.T) {
	uniform := map[uint64]uint64{1: 10, 2: 10, 3: 10, 4: 10}
	skewed := map[uint64]uint64{1: 37, 2: 1, 3: 1, 4: 1}
	if Entropy(skewed) >= Entropy(uniform) {
		t.Errorf("skewed entropy %g should be below uniform %g", Entropy(skewed), Entropy(uniform))
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	// 0 ≤ H ≤ log2(unique addresses) for any distribution.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		unique := int(n%50) + 1
		counts := make(map[uint64]uint64)
		for i := 0; i < unique; i++ {
			counts[rng.Uint64()] = uint64(rng.Intn(1000)) + 1
		}
		h := Entropy(counts)
		return h >= 0 && h <= math.Log2(float64(len(counts)))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLocalEntropyAtMostGlobal(t *testing.T) {
	// Masking low bits merges bins, which can only reduce entropy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := make(map[uint64]uint64)
		for i := 0; i < 200; i++ {
			counts[rng.Uint64()%(1<<20)] = uint64(rng.Intn(50)) + 1
		}
		global := Entropy(counts)
		local := Entropy(maskCounts(counts, 10))
		return local <= global+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFootprintBasics(t *testing.T) {
	// One address holds 90 of 100 accesses: the 90% footprint is 1.
	counts := map[uint64]uint64{1: 90, 2: 5, 3: 5}
	if got := Footprint(counts, 0.9); got != 1 {
		t.Errorf("Footprint(hot) = %d, want 1", got)
	}
	// Uniform: 90% of addresses are needed.
	uniform := make(map[uint64]uint64)
	for i := 0; i < 100; i++ {
		uniform[uint64(i)] = 1
	}
	if got := Footprint(uniform, 0.9); got != 90 {
		t.Errorf("Footprint(uniform) = %d, want 90", got)
	}
}

func TestFootprintEdgeCases(t *testing.T) {
	if got := Footprint(nil, 0.9); got != 0 {
		t.Errorf("Footprint(nil) = %d", got)
	}
	counts := map[uint64]uint64{1: 3, 2: 3}
	if got := Footprint(counts, 0); got != 0 {
		t.Errorf("Footprint(frac=0) = %d, want 0", got)
	}
	if got := Footprint(counts, 5); got != 2 {
		t.Errorf("Footprint(frac>1) = %d, want all (2)", got)
	}
}

func TestFootprintMonotoneInFraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := make(map[uint64]uint64)
		for i := 0; i < 64; i++ {
			counts[uint64(i)] = uint64(rng.Intn(100)) + 1
		}
		return Footprint(counts, 0.5) <= Footprint(counts, 0.9) &&
			Footprint(counts, 0.9) <= Footprint(counts, 1.0) &&
			Footprint(counts, 1.0) <= uint64(len(counts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCharacterizeSeparatesReadsAndWrites(t *testing.T) {
	tr := &trace.Trace{
		Name: "rw", Threads: 1, InstrCount: 100,
		Accesses: []trace.Access{
			{Addr: 0x100, Kind: trace.Read},
			{Addr: 0x200, Kind: trace.Read},
			{Addr: 0x100, Kind: trace.Read},
			{Addr: 0x900, Kind: trace.Write},
			{Addr: 0xA00, Kind: trace.Ifetch}, // ignored
		},
	}
	f := Characterize(tr, Config{})
	if f.TotalReads != 3 || f.TotalWrites != 1 {
		t.Errorf("totals = %d,%d; want 3,1", f.TotalReads, f.TotalWrites)
	}
	if f.UniqueReads != 2 || f.UniqueWrites != 1 {
		t.Errorf("uniques = %d,%d; want 2,1", f.UniqueReads, f.UniqueWrites)
	}
	if f.GlobalWriteEntropy != 0 {
		t.Errorf("single-write entropy = %g, want 0", f.GlobalWriteEntropy)
	}
}

func TestProfilerStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := &trace.Trace{Name: "p", Threads: 1}
	for i := 0; i < 5000; i++ {
		tr.Accesses = append(tr.Accesses, trace.Access{
			Addr: rng.Uint64() % (1 << 16),
			Kind: trace.Kind(rng.Intn(2)),
		})
	}
	tr.InstrCount = uint64(len(tr.Accesses))
	batch := Characterize(tr, Config{})
	p := NewProfiler(Config{})
	for _, a := range tr.Accesses {
		p.Observe(a)
	}
	stream := p.Features()
	b, s := batch.Vector(), stream.Vector()
	for i := range b {
		if math.Float64bits(b[i]) != math.Float64bits(s[i]) {
			t.Errorf("feature %s: streaming %g != batch %g", FeatureNames[i], s[i], b[i])
		}
	}
}

// TestCharacterizeBitIdentical: characterizing one trace again must give
// the same features to the last bit. The counts live in maps, whose
// iteration order changes from run to run, so a sum in map order would
// not (a skewed trace with many distinct counts makes that near certain).
func TestCharacterizeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<14)
	tr := &trace.Trace{Name: "skew", Threads: 1}
	for i := 0; i < 50000; i++ {
		tr.Accesses = append(tr.Accesses, trace.Access{Addr: zipf.Uint64() << 6, Kind: trace.Kind(rng.Intn(2))})
	}
	tr.InstrCount = uint64(len(tr.Accesses))
	first := Characterize(tr, Config{}).Vector()
	for rep := 0; rep < 10; rep++ {
		again := Characterize(tr, Config{}).Vector()
		for i := range first {
			if math.Float64bits(again[i]) != math.Float64bits(first[i]) {
				t.Fatalf("repetition %d: feature %s is %v, first characterization %v", rep, FeatureNames[i], again[i], first[i])
			}
		}
	}
}

func TestLocalSkipBitsConfig(t *testing.T) {
	// Two addresses within one 1KB region: local entropy 0, global > 0.
	tr := &trace.Trace{Name: "local", Threads: 1, InstrCount: 2,
		Accesses: []trace.Access{
			{Addr: 0x1000, Kind: trace.Read},
			{Addr: 0x1200, Kind: trace.Read},
		}}
	f := Characterize(tr, Config{})
	if f.GlobalReadEntropy != 1 {
		t.Errorf("global entropy = %g, want 1", f.GlobalReadEntropy)
	}
	if f.LocalReadEntropy != 0 {
		t.Errorf("local entropy (M=10) = %g, want 0", f.LocalReadEntropy)
	}
	// With M=4 the two addresses are distinct regions.
	f4 := Characterize(tr, Config{LocalSkipBits: 4})
	if f4.LocalReadEntropy != 1 {
		t.Errorf("local entropy (M=4) = %g, want 1", f4.LocalReadEntropy)
	}
}

func TestVectorMatchesFeatureNames(t *testing.T) {
	f := Features{
		GlobalReadEntropy: 1, LocalReadEntropy: 2,
		GlobalWriteEntropy: 3, LocalWriteEntropy: 4,
		UniqueReads: 5, UniqueWrites: 6,
		Footprint90Reads: 7, Footprint90Writes: 8,
		TotalReads: 9, TotalWrites: 10,
	}
	v := f.Vector()
	if len(v) != len(FeatureNames) {
		t.Fatalf("Vector len %d != FeatureNames len %d", len(v), len(FeatureNames))
	}
	for i, want := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		if v[i] != want {
			t.Errorf("Vector[%d] (%s) = %g, want %g", i, FeatureNames[i], v[i], want)
		}
	}
}

func TestFeaturesString(t *testing.T) {
	s := Features{TotalReads: 3}.String()
	if s == "" {
		t.Error("empty String()")
	}
}
