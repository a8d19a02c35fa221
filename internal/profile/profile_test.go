package profile

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"nvmllc/internal/cache"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// genTrace materializes a named workload trace for tests.
func genTrace(t *testing.T, name string, opts workload.Options) *trace.Trace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	tr, err := workload.Generate(p, opts)
	if err != nil {
		t.Fatalf("Generate(%s): %v", name, err)
	}
	return tr
}

// exactHits drives an exact cache.Cache simulation of a raw line stream
// and returns its hit count.
func exactHits(t *testing.T, tr *trace.Trace, sets, ways, blockBytes int) uint64 {
	t.Helper()
	c, err := cache.New(cache.Config{
		Name:          "X",
		CapacityBytes: int64(sets) * int64(ways) * int64(blockBytes),
		BlockBytes:    blockBytes,
		Ways:          ways,
	})
	if err != nil {
		t.Fatalf("cache.New(%d sets, %d ways): %v", sets, ways, err)
	}
	for _, a := range tr.Accesses {
		c.Access(c.Line(a.Addr), a.Kind == trace.Write)
	}
	return c.Stats().Hits
}

// TestCrossCheckExact is the exhaustive small-geometry property test:
// for every set count ≤ 64 and associativity ≤ 8, the profiler-derived
// LRU hit count must equal the exact cache.Cache simulation's, across
// several workloads and seeds.
func TestCrossCheckExact(t *testing.T) {
	setCounts := []int{1, 2, 4, 8, 16, 32, 64}
	cfg := Config{SetCounts: setCounts, MaxWays: 8}
	for _, name := range []string{"ft", "mg", "deepsjeng", "milc"} {
		for _, seed := range []int64{1, 7} {
			opts := workload.Options{Accesses: 20000, Threads: 2, Seed: seed}
			tr := genTrace(t, name, opts)
			src, err := trace.NewTraceSource(tr)
			if err != nil {
				t.Fatalf("NewTraceSource: %v", err)
			}
			p, err := Run(context.Background(), src, cfg, nil)
			if err != nil {
				t.Fatalf("Run(%s seed %d): %v", name, seed, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate(%s seed %d): %v", name, seed, err)
			}
			for _, sets := range setCounts {
				for ways := 1; ways <= 8; ways++ {
					got, ok := p.HitsFor(sets, ways)
					if !ok {
						t.Fatalf("%s seed %d: HitsFor(%d, %d) not derivable", name, seed, sets, ways)
					}
					if want := exactHits(t, tr, sets, ways, DefaultBlockBytes); got != want {
						t.Errorf("%s seed %d, %d sets × %d ways: profiler %d hits, exact %d",
							name, seed, sets, ways, got, want)
					}
				}
			}
		}
	}
}

// TestDerivationIdentities checks the derived-quantity algebra on a
// real profile: hits+misses = demand, hit rate and MPKI consistency,
// cold counts identical across levels, monotonicity in associativity.
func TestDerivationIdentities(t *testing.T) {
	tr := genTrace(t, "ft", workload.Options{Accesses: 30000, Threads: 4, Seed: 3})
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatalf("NewTraceSource: %v", err)
	}
	p, err := Run(context.Background(), src, Config{SetCounts: []int{64, 512, 2048}}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.Demand != uint64(len(tr.Accesses)) {
		t.Fatalf("demand = %d, want %d", p.Demand, len(tr.Accesses))
	}
	cold := p.Levels[0].Cold
	for _, lv := range p.Levels {
		if lv.Cold != cold {
			t.Errorf("level %d sets: cold %d differs from %d", lv.Sets, lv.Cold, cold)
		}
	}
	var prev uint64
	for ways := 1; ways <= p.MaxWays; ways++ {
		hits, ok := p.HitsFor(512, ways)
		if !ok {
			t.Fatalf("HitsFor(512, %d) not derivable", ways)
		}
		if hits < prev {
			t.Errorf("hits not monotonic in ways: %d ways gives %d < %d", ways, hits, prev)
		}
		prev = hits
	}
	if _, ok := p.HitsFor(1024, 4); ok {
		t.Error("HitsFor on an unprofiled set count should report !ok")
	}
	if _, ok := p.HitsFor(512, p.MaxWays+1); ok {
		t.Error("HitsFor beyond MaxWays should report !ok")
	}
	if curve := p.Curve(512); len(curve) != p.MaxWays {
		t.Errorf("Curve length %d, want %d", len(curve), p.MaxWays)
	}
}

// TestDeterminismAndScratchReuse runs the same stream twice through one
// Scratch and once through a fresh one; all three profiles must be
// deep-equal.
func TestDeterminismAndScratchReuse(t *testing.T) {
	tr := genTrace(t, "mg", workload.Options{Accesses: 20000, Threads: 4, Seed: 2})
	cfg := Config{SetCounts: []int{16, 256, 4096}}
	run := func(sc *Scratch) *Profile {
		src, err := trace.NewTraceSource(tr)
		if err != nil {
			t.Fatalf("NewTraceSource: %v", err)
		}
		p, err := Run(context.Background(), src, cfg, sc)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p
	}
	sc := new(Scratch)
	a, b, c := run(sc), run(sc), run(nil)
	if !reflect.DeepEqual(a, b) {
		t.Error("scratch reuse changed the profile")
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("fresh scratch changed the profile")
	}
}

// TestJSONRoundTrip persists a profile through JSON and checks the
// decoded copy validates and derives identical hit counts.
func TestJSONRoundTrip(t *testing.T) {
	tr := genTrace(t, "ft", workload.Options{Accesses: 10000, Threads: 2, Seed: 1})
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatalf("NewTraceSource: %v", err)
	}
	p, err := Run(context.Background(), src, Config{SetCounts: []int{32, 128}}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var q Profile
	if err := json.Unmarshal(blob, &q); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("decoded profile invalid: %v", err)
	}
	for _, sets := range []int{32, 128} {
		for ways := 1; ways <= p.MaxWays; ways *= 2 {
			want, _ := p.HitsFor(sets, ways)
			got, ok := q.HitsFor(sets, ways)
			if !ok || got != want {
				t.Errorf("HitsFor(%d, %d) after round trip = %d ok=%v, want %d", sets, ways, got, ok, want)
			}
		}
	}
}

// TestCancellation checks a cancelled context aborts the pass.
func TestCancellation(t *testing.T) {
	tr := genTrace(t, "ft", workload.Options{Accesses: 10000, Threads: 2, Seed: 1})
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatalf("NewTraceSource: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, src, Config{SetCounts: []int{64}}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestConfigValidate exercises the configuration error paths.
func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{},                                 // no set counts
		{SetCounts: []int{3}},              // not a power of two
		{SetCounts: []int{8, 8}},           // duplicate
		{SetCounts: []int{8}, MaxWays: -1}, // bad ways
		{SetCounts: []int{8}, BlockBytes: 3} /* bad block */}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
	good := Config{SetCounts: []int{1, 64}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected %+v: %v", good, err)
	}
}

// TestProfileValidateRejects checks that a decoded profile whose levels
// do not classify exactly Demand accesses is rejected, including
// buckets large enough to wrap a uint64 sum back onto Demand: two 2^63
// buckets plus 5 sum to 5 modulo 2^64, and HitsFor(1, 1) would answer
// 2^63 hits out of 5 accesses. A level repeating an earlier set count is
// rejected too: lookups answer from the first, so the repeat is never
// read.
func TestProfileValidateRejects(t *testing.T) {
	mk := func(hist []uint64, cold uint64) *Profile {
		return &Profile{Name: "p", BlockBytes: 64, MaxWays: 2, Demand: 5,
			Levels: []Level{{Sets: 1, Hist: hist, Cold: cold}}}
	}
	cases := map[string]*Profile{
		"wrapped histogram": mk([]uint64{1 << 63, 1 << 63, 5}, 0),
		"wrapped cold":      mk([]uint64{1, 1, 1}, 1<<64-1),
		"too many":          mk([]uint64{2, 2, 2}, 0),
		"too few":           mk([]uint64{1, 1, 1}, 1),
		"repeated sets": {Name: "p", BlockBytes: 64, MaxWays: 2, Demand: 5,
			Levels: []Level{{Sets: 1, Hist: []uint64{1, 1, 1}, Cold: 2}, {Sets: 1, Hist: []uint64{5, 0, 0}, Cold: 0}}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			hits, _ := p.HitsFor(1, 1)
			t.Errorf("%s: Validate accepted %+v (HitsFor(1, 1) = %d of %d)", name, p.Levels[0], hits, p.Demand)
		}
	}
	if err := mk([]uint64{1, 1, 1}, 2).Validate(); err != nil {
		t.Errorf("Validate rejected a consistent profile: %v", err)
	}
}

// TestRunFiltered checks the filtered pass's bookkeeping: stream totals
// add up, upstream stats are populated, and the filter is deterministic
// across scratch reuse.
func TestRunFiltered(t *testing.T) {
	tr := genTrace(t, "ft", workload.Options{Accesses: 30000, Threads: 4, Seed: 1})
	h := Hierarchy{
		BlockBytes: 64,
		L1I:        LevelSpec{CapacityBytes: 32 << 10, Ways: 4},
		L1D:        LevelSpec{CapacityBytes: 32 << 10, Ways: 8},
		L2:         LevelSpec{CapacityBytes: 256 << 10, Ways: 8},
	}
	cfg := Config{SetCounts: []int{512, 1024, 2048, 4096}}
	run := func(sc *Scratch) *Profile {
		src, err := trace.NewTraceSource(tr)
		if err != nil {
			t.Fatalf("NewTraceSource: %v", err)
		}
		p, err := RunFiltered(context.Background(), src, h, cfg, sc)
		if err != nil {
			t.Fatalf("RunFiltered: %v", err)
		}
		return p
	}
	sc := new(Scratch)
	p := run(sc)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Demand+p.Writebacks != uint64(p.Accesses) {
		t.Errorf("demand %d + writebacks %d != stream accesses %d", p.Demand, p.Writebacks, p.Accesses)
	}
	if p.Upstream == nil {
		t.Fatal("filtered profile has no upstream stats")
	}
	if p.Upstream.L2.Misses != p.Demand {
		t.Errorf("L2 misses %d != LLC demand %d", p.Upstream.L2.Misses, p.Demand)
	}
	if got := p.Upstream.L1D.Accesses() + p.Upstream.L1I.Accesses(); got != uint64(len(tr.Accesses)) {
		t.Errorf("L1 lookups %d != trace accesses %d", got, len(tr.Accesses))
	}
	if p.Demand == 0 {
		t.Error("filter strained away every demand access")
	}
	// The LLC sees far fewer accesses than the raw trace.
	if p.Accesses >= int64(len(tr.Accesses)) {
		t.Errorf("filtered stream (%d) not smaller than raw (%d)", p.Accesses, len(tr.Accesses))
	}
	if q := run(sc); !reflect.DeepEqual(p, q) {
		t.Error("filtered profile not deterministic across scratch reuse")
	}
}
