package sweep

// Tests that the studies submit their design points as generator-backed
// batches: the engine's workers generate each distinct trace once per
// batch, and a design point answered from the cache generates nothing.

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/workload"
)

// batchOpts keeps the traces short: these tests count work, they do not
// check numbers.
var batchOpts = workload.Options{Accesses: 5000, Seed: 3}

// TestLifetimeGeneratesEachTraceOnce: the 48-point lifetime study is one
// batch over 16 traces, so each trace is generated once and replayed for
// the other two LLCs.
func TestLifetimeGeneratesEachTraceOnce(t *testing.T) {
	eng := engine.New()
	if _, err := Lifetime(context.Background(), Config{Opts: batchOpts, Engine: eng}, nil); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Simulated != 48 {
		t.Errorf("Simulated = %d, want 48", st.Simulated)
	}
	if st.TraceGens != 16 || st.TraceShared != 32 {
		t.Errorf("TraceGens = %d, TraceShared = %d, want 16/32", st.TraceGens, st.TraceShared)
	}
}

// TestWarmRegistryGeneratesNothing: regenerating every registry artifact
// on a warm engine answers each design point and profile from the cache,
// so it neither simulates nor generates a trace.
func TestWarmRegistryGeneratesNothing(t *testing.T) {
	eng := engine.New()
	cfg := Config{Opts: batchOpts, Engine: eng}
	runAll := func() engine.Stats {
		t.Helper()
		for _, name := range ArtifactNames() {
			if _, err := Run(context.Background(), name, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return eng.Stats()
	}
	cold := runAll()
	warm := runAll()
	if cold.TraceGens == 0 {
		t.Fatal("cold pass generated no trace through the engine")
	}
	if warm.Simulated != cold.Simulated || warm.Upgraded != cold.Upgraded {
		t.Errorf("warm pass simulated %d and upgraded %d design points, want 0/0",
			warm.Simulated-cold.Simulated, warm.Upgraded-cold.Upgraded)
	}
	if warm.TraceGens != cold.TraceGens || warm.Profiles != cold.Profiles {
		t.Errorf("warm pass generated %d traces and ran %d profiles, want 0/0",
			warm.TraceGens-cold.TraceGens, warm.Profiles-cold.Profiles)
	}
	if warm.Cached <= cold.Cached {
		t.Error("warm pass answered nothing from the cache")
	}
}

// TestCoreSweepIsOneBatch: every core count's design points and the
// explicit 1-core SRAM baseline go to the engine in one batch. With one
// worker per design point, each progress callback waits until all of
// them have answered, which happens only if they were all in flight at
// once; none may be answered twice or from the cache.
func TestCoreSweepIsOneBatch(t *testing.T) {
	cores := []int{2, 4} // no 1: the baseline is an extra point
	want := len(cores)*len(reference.FixedAreaModels()) + 1
	var (
		mu      sync.Mutex
		events  []engine.Event
		stalled atomic.Bool
	)
	all := make(chan struct{})
	eng := engine.New(engine.WithParallelism(want), engine.WithProgress(func(ev engine.Event) {
		mu.Lock()
		events = append(events, ev)
		if len(events) == want {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(30 * time.Second):
			stalled.Store(true)
		}
	}))
	res, err := CoreSweep(context.Background(), "ft", cores, Config{Opts: batchOpts, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if stalled.Load() {
		t.Error("design points were not all in flight at once: the sweep ran in more than one batch")
	}
	if len(events) != want {
		t.Fatalf("%d design points answered, want %d", len(events), want)
	}
	keys := make(map[string]bool, want)
	for _, ev := range events {
		if ev.Err != nil || ev.Cached {
			t.Errorf("%s on %s: err %v, cached %v; want a fresh simulation", ev.Workload, ev.LLC, ev.Err, ev.Cached)
		}
		keys[ev.Key] = true
	}
	if len(keys) != want {
		t.Errorf("%d distinct design points answered, want %d", len(keys), want)
	}
	if st := eng.Stats(); st.TraceGens != 3 {
		t.Errorf("TraceGens = %d, want 3 (one per core count plus the baseline)", st.TraceGens)
	}
	if len(res.Speedup) != len(cores) {
		t.Errorf("%d speedup rows, want %d", len(res.Speedup), len(cores))
	}
}

// TestCoreSweepReusesFigure2b: Figure 2b's cells are the core sweep's
// 4-core points — the same trace (Threads 0 resolves to 4) on the same
// machine — so after Figure 2b the sweep answers all of them from the
// cache, simulates only the other core counts, and returns what a fresh
// engine computes.
func TestCoreSweepReusesFigure2b(t *testing.T) {
	ctx := context.Background()
	cores := []int{2, 4}
	models := len(reference.FixedAreaModels())
	eng := engine.New()
	if _, err := Figure2b(ctx, Config{Opts: batchOpts, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	got, err := CoreSweep(ctx, "ft", cores, Config{Opts: batchOpts, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if cached := st.Cached - before.Cached; cached != uint64(models) {
		t.Errorf("core sweep after Figure 2b: %d points cached, want the %d 4-core points", cached, models)
	}
	if sim := st.Simulated - before.Simulated; sim != uint64(models+1) {
		t.Errorf("core sweep after Figure 2b: %d points simulated, want %d (2 cores plus the 1-core baseline)", sim, models+1)
	}
	want, err := CoreSweep(ctx, "ft", cores, Config{Opts: batchOpts, Engine: engine.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("core sweep answered from Figure 2b's cache differs from a fresh engine's")
	}
}

// TestEstimatorReusesExactTrace: the estimator paths profile, or replay
// aged points, after their exact batch has returned. The engine retains
// the batch's traces, so on a fresh engine each path generates every
// distinct trace once: the figure grid's two workloads, and the single
// workload of the estimate and degradation studies.
func TestEstimatorReusesExactTrace(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name     string
		traces   uint64
		profiles uint64
		run      func(Config) error
	}{
		{"figure", 2, 2, func(cfg Config) error {
			_, err := RunFigure(ctx, "estimated", reference.FixedCapacityModels(), []string{"is", "bzip2"}, cfg)
			return err
		}},
		{"estimate", 1, 1, func(cfg Config) error {
			_, err := Estimate(ctx, cfg, EstimateOptions{})
			return err
		}},
		{"degradation", 1, 1, func(cfg Config) error {
			_, err := Degradation(ctx, cfg, DegradationOptions{AgesYears: []float64{0.5, 2}})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := engine.New()
			cfg := Config{Opts: batchOpts, Engine: eng, Estimator: &Estimator{PinExact: []string{"Kang_P"}}}
			if err := tc.run(cfg); err != nil {
				t.Fatal(err)
			}
			st := eng.Stats()
			if st.TraceGens != tc.traces || st.Profiles != tc.profiles {
				t.Errorf("TraceGens = %d, Profiles = %d, want %d/%d (one generation per distinct trace)",
					st.TraceGens, st.Profiles, tc.traces, tc.profiles)
			}
			if st.TraceShared == 0 {
				t.Error("the profile and later batch shared no trace")
			}
		})
	}
}
