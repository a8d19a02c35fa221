package prism

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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
		if got := entropyOf(counts); math.Abs(got-want) > 1e-9 {
			t.Errorf("entropy(uniform %d) = %g, want %g", n, got, want)
		}
	}
}

func TestEntropyEmptyAndSingle(t *testing.T) {
	if got := entropyOf(nil); got != 0 {
		t.Errorf("entropy(nil) = %g, want 0", got)
	}
	if got := entropyOf(map[uint64]uint64{42: 1000}); got != 0 {
		t.Errorf("entropy(single) = %g, want 0", got)
	}
}

func TestEntropySkewedBelowUniform(t *testing.T) {
	uniform := map[uint64]uint64{1: 10, 2: 10, 3: 10, 4: 10}
	skewed := map[uint64]uint64{1: 37, 2: 1, 3: 1, 4: 1}
	if entropyOf(skewed) >= entropyOf(uniform) {
		t.Errorf("skewed entropy %g should be below uniform %g", entropyOf(skewed), entropyOf(uniform))
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
		h := entropyOf(counts)
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
		global := entropyOf(counts)
		local := entropyOf(oracleMask(counts, 10))
		return local <= global+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFootprintBasics(t *testing.T) {
	// One address holds 90 of 100 accesses: the 90% footprint is 1.
	counts := map[uint64]uint64{1: 90, 2: 5, 3: 5}
	if got := footprintOf(counts, 0.9); got != 1 {
		t.Errorf("footprint(hot) = %d, want 1", got)
	}
	// Uniform: 90% of addresses are needed.
	uniform := make(map[uint64]uint64)
	for i := 0; i < 100; i++ {
		uniform[uint64(i)] = 1
	}
	if got := footprintOf(uniform, 0.9); got != 90 {
		t.Errorf("footprint(uniform) = %d, want 90", got)
	}
}

func TestFootprintEdgeCases(t *testing.T) {
	if got := footprintOf(nil, 0.9); got != 0 {
		t.Errorf("footprint(nil) = %d", got)
	}
	counts := map[uint64]uint64{1: 3, 2: 3}
	if got := footprintOf(counts, 0); got != 0 {
		t.Errorf("footprint(frac=0) = %d, want 0", got)
	}
	if got := footprintOf(counts, 5); got != 2 {
		t.Errorf("footprint(frac>1) = %d, want all (2)", got)
	}
}

func TestFootprintMonotoneInFraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := make(map[uint64]uint64)
		for i := 0; i < 64; i++ {
			counts[uint64(i)] = uint64(rng.Intn(100)) + 1
		}
		return footprintOf(counts, 0.5) <= footprintOf(counts, 0.9) &&
			footprintOf(counts, 0.9) <= footprintOf(counts, 1.0) &&
			footprintOf(counts, 1.0) <= uint64(len(counts))
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
	p := NewProfilerIn(Config{}, int64(len(tr.Accesses)), new(Scratch))
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
// the same features to the last bit. A sum in table-slot or map order
// would depend on how the counts were laid out (a skewed trace with many
// distinct counts makes a difference near certain); the sorted sum does
// not.
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

// entropyOf is entropy over a count map, for tests that state a
// distribution directly.
func entropyOf(counts map[uint64]uint64) float64 {
	return entropy(sortedValues(counts), oracleTotal(counts))
}

// footprintOf is footprint over a count map.
func footprintOf(counts map[uint64]uint64, frac float64) uint64 {
	return footprint(sortedValues(counts), oracleTotal(counts), frac)
}

func sortedValues(counts map[uint64]uint64) []uint64 {
	var vs []uint64
	for _, c := range counts {
		vs = append(vs, c)
	}
	slices.Sort(vs)
	return vs
}

// mapProfiler is the map-based profiler the table-based one replaced,
// kept as its oracle: per-address counts in Go maps, a multiplicity map
// per entropy, a descending sort per footprint and a masked map per
// local entropy.
type mapProfiler struct {
	skipBits      int
	reads, writes map[uint64]uint64
}

func newMapProfiler(cfg Config) *mapProfiler {
	return &mapProfiler{skipBits: cfg.skipBits(), reads: map[uint64]uint64{}, writes: map[uint64]uint64{}}
}

func (p *mapProfiler) observe(a trace.Access) {
	switch a.Kind {
	case trace.Read:
		p.reads[a.Addr]++
	case trace.Write:
		p.writes[a.Addr]++
	}
}

func (p *mapProfiler) features() Features {
	return Features{
		GlobalReadEntropy:  oracleEntropy(p.reads),
		LocalReadEntropy:   oracleEntropy(oracleMask(p.reads, p.skipBits)),
		GlobalWriteEntropy: oracleEntropy(p.writes),
		LocalWriteEntropy:  oracleEntropy(oracleMask(p.writes, p.skipBits)),
		UniqueReads:        uint64(len(p.reads)),
		UniqueWrites:       uint64(len(p.writes)),
		Footprint90Reads:   oracleFootprint(p.reads, 0.9),
		Footprint90Writes:  oracleFootprint(p.writes, 0.9),
		TotalReads:         oracleTotal(p.reads),
		TotalWrites:        oracleTotal(p.writes),
	}
}

func oracleEntropy(counts map[uint64]uint64) float64 {
	n := oracleTotal(counts)
	if n == 0 {
		return 0
	}
	mult := make(map[uint64]uint64)
	for _, c := range counts {
		if c != 0 {
			mult[c]++
		}
	}
	ks := make([]uint64, 0, len(mult))
	for k := range mult {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	var h float64
	fn := float64(n)
	for _, k := range ks {
		p := float64(k) / fn
		h -= float64(mult[k]) * p * math.Log2(p)
	}
	if h < 0 {
		h = 0
	}
	return h
}

func oracleFootprint(counts map[uint64]uint64, frac float64) uint64 {
	n := oracleTotal(counts)
	if n == 0 {
		return 0
	}
	cs := make([]uint64, 0, len(counts))
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] > cs[j] })
	need := uint64(math.Ceil(frac * float64(n)))
	var cum, taken uint64
	for _, c := range cs {
		cum += c
		taken++
		if cum >= need {
			break
		}
	}
	return taken
}

func oracleMask(counts map[uint64]uint64, skipBits int) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(counts)/4+1)
	for addr, c := range counts {
		out[addr>>uint(skipBits)] += c
	}
	return out
}

func oracleTotal(counts map[uint64]uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// TestFeaturesMatchMapOracle: on random traces the table-based profiler
// gives exactly (==, to the last bit) the map oracle's features. Traces
// span 1-8 threads (each thread its own address region plus a shared
// hot set, so counts are skewed and many are equal), LocalSkipBits 1-16,
// and read-only, write-only, ifetch-only and empty traces. Every case
// runs on one Scratch, so each profiler reuses storage the one before it
// grew or left dirty.
func TestFeaturesMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sc := new(Scratch)
	for c := 0; c < 60; c++ {
		threads := 1 + rng.Intn(8)
		n := []int{0, 1, 50, 3000, 40000}[c%5]
		mix := c % 4 // 0 mixed, 1 read-only, 2 write-only, 3 with ifetches
		cfg := Config{LocalSkipBits: 1 + rng.Intn(16)}
		zipf := rand.NewZipf(rng, 1.1+rng.Float64(), 1, uint64(1+rng.Intn(1<<14)))
		tr := &trace.Trace{Name: "oracle", Threads: threads}
		for i := 0; i < n; i++ {
			tid := i % threads
			addr := uint64(tid)<<32 | rng.Uint64()%(1<<20)
			if rng.Intn(2) == 0 {
				addr = zipf.Uint64() << 3
			}
			kind := trace.Kind(rng.Intn(2))
			switch mix {
			case 1:
				kind = trace.Read
			case 2:
				kind = trace.Write
			case 3:
				kind = trace.Kind(rng.Intn(3))
			}
			tr.Accesses = append(tr.Accesses, trace.Access{Addr: addr, Kind: kind, Tid: uint8(tid)})
		}
		oracle := newMapProfiler(cfg)
		p := NewProfilerIn(cfg, int64(n), sc)
		for _, a := range tr.Accesses {
			oracle.observe(a)
			p.Observe(a)
		}
		want := oracle.features()
		if got := p.Features(); got != want {
			t.Fatalf("case %d (%d threads, %d accesses, mix %d, M=%d):\n table %v\noracle %v", c, threads, n, mix, cfg.LocalSkipBits, got, want)
		}
		if got := p.Features(); got != want {
			t.Fatalf("case %d: a second Features call differs from the first: %v", c, got)
		}
		if got := Characterize(tr, cfg); got != want {
			t.Fatalf("case %d: Characterize %v, oracle %v", c, got, want)
		}
	}
}
