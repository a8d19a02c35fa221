package nvmllc_test

// Hot-loop micro-benchmarks (see the README's Performance section).
// BenchmarkHotLoop_{4,16,64}Cores isolate the simulator's per-access
// path — the streaming ring fed from a materialized trace, the min-heap
// core scheduler and the hierarchy walk — at the paper's Section V-C
// core counts; BenchmarkTraceGen isolates the synthetic workload
// generator. Run with -benchmem and -count ≥5 and compare medians;
// perfbench measures the same layers with quartiles.
// TestProfileSpeedupGate and TestStreamingAllocGate (allocgate_test.go)
// are the two performance gates CI enforces.

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"nvmllc/internal/cache"
	"nvmllc/internal/engine"
	"nvmllc/internal/profile"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// hotLoopTrace generates the multi-threaded trace the hot-loop
// benchmarks simulate (outside the timed region).
func hotLoopTrace(b *testing.B, cores int) *trace.Trace {
	b.Helper()
	p, err := workload.ByName("ft")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Generate(p, workload.Options{Accesses: 100_000, Threads: cores, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchHotLoop streams the hot-loop trace through the simulator on the
// given machine, reusing one Scratch so the steady state is measured.
func benchHotLoop(b *testing.B, cfg system.Config) {
	tr := hotLoopTrace(b, cfg.Cores)
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		b.Fatal(err)
	}
	var scratch system.Scratch
	b.ReportAllocs()
	b.SetBytes(int64(len(tr.Accesses)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		if _, err := system.RunStreamWith(context.Background(), cfg, src, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func sramMachine(cores int) system.Config {
	return system.Gainestown(reference.SRAMBaseline()).WithCores(cores)
}

func BenchmarkHotLoop_4Cores(b *testing.B)  { benchHotLoop(b, sramMachine(4)) }
func BenchmarkHotLoop_16Cores(b *testing.B) { benchHotLoop(b, sramMachine(16)) }
func BenchmarkHotLoop_64Cores(b *testing.B) { benchHotLoop(b, sramMachine(64)) }

// BenchmarkHotLoop_Sampling is BenchmarkHotLoop_64Cores with epoch
// sampling on: the per-access cost of the -timeline instrumentation
// (one counter compare per retired batch plus an O(points) capture at
// epoch boundaries). Compare against BenchmarkHotLoop_64Cores; the
// budget is <5%, and perfbench's system.sampling_overhead_pct reports
// it with quartiles.
func BenchmarkHotLoop_Sampling(b *testing.B) {
	cfg := sramMachine(64)
	cfg.Timeline = &system.TimelineConfig{}
	benchHotLoop(b, cfg)
}

// BenchmarkHotLoop_Streaming measures the streaming pipeline fed straight
// from the generator at the 64-core configuration, where a materialized
// trace costs the most memory: the generator produces chunk N+1 while
// the simulator consumes chunk N, and per-iteration memory stays
// O(chunk) regardless of trace length (TestStreamingAllocGate's budget
// was set from its allocs/op). Trace synthesis sits inside the timed
// region, so on a single-CPU runner this carries the full TraceGen cost
// on top of the pipeline.
func BenchmarkHotLoop_Streaming(b *testing.B) {
	const cores = 64
	p, err := workload.ByName("ft")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(p, workload.Options{Accesses: 100_000, Threads: cores, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sramMachine(cores)
	var scratch system.Scratch
	b.ReportAllocs()
	b.SetBytes(int64(gen.Meta().Accesses))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		if _, err := system.RunStreamWith(context.Background(), cfg, gen, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweep runs an 8-design-point LLC-model sweep over one workload
// through the engine with the result cache off, so every point
// simulates each iteration. The Shared/Unshared pair isolates cross-job
// trace sharing: with it the sweep materializes its trace once and
// hands every design point a read-only cursor; without it every point
// re-runs the generator.
func benchSweep(b *testing.B, opts ...engine.Option) {
	p, err := workload.ByName("ft")
	if err != nil {
		b.Fatal(err)
	}
	genOpts := workload.Options{Accesses: 100_000, Threads: 4, Seed: 1}
	models := reference.FixedCapacityModels()[:8]
	jobs := make([]engine.Job, len(models))
	for i, m := range models {
		jobs[i] = engine.StreamJob(p, genOpts, system.Gainestown(m).WithCores(4))
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(models) * genOpts.Accesses))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(append([]engine.Option{engine.WithoutCache()}, opts...)...)
		if _, err := eng.RunAll(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep_8Points_Shared(b *testing.B)   { benchSweep(b) }
func BenchmarkSweep_8Points_Unshared(b *testing.B) { benchSweep(b, engine.WithoutTraceSharing()) }

// gainestownHierarchy mirrors the simulated private levels for the
// profile filter, so the profiled LLC stream matches the simulator's.
func gainestownHierarchy() profile.Hierarchy {
	sys := system.Gainestown(reference.SRAMBaseline())
	return profile.Hierarchy{
		BlockBytes: sys.BlockBytes,
		L1I:        profile.LevelSpec{CapacityBytes: sys.L1IBytes, Ways: sys.L1IWays},
		L1D:        profile.LevelSpec{CapacityBytes: sys.L1DBytes, Ways: sys.L1DWays},
		L2:         profile.LevelSpec{CapacityBytes: sys.L2Bytes, Ways: sys.L2Ways},
	}
}

// BenchmarkProfile_SinglePass measures the raw Mattson stack profiler —
// Fenwick-tree reuse distances at one LLC set count, every
// associativity 1..16 answered from the same pass — over the hot-loop
// trace, with no upstream filtering.
func BenchmarkProfile_SinglePass(b *testing.B) {
	tr := hotLoopTrace(b, 4)
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		b.Fatal(err)
	}
	cfg := profile.Config{BlockBytes: 64, SetCounts: []int{2048}, MaxWays: 16}
	var sc profile.Scratch
	b.ReportAllocs()
	b.SetBytes(int64(len(tr.Accesses)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		if _, err := profile.Run(context.Background(), src, cfg, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// geometrySweep is the comparison behind the single-pass profile: eight
// SRAM LLC capacities (256 KiB to 32 MiB) over one quad-core ft trace,
// simulated exactly one after another, against one filtered
// reuse-distance profile that answers every capacity — and every
// associativity 1..16 — from a single pass.
type geometrySweep struct {
	src   *trace.TraceSource
	exact []system.Config
	hier  profile.Hierarchy
	prof  profile.Config
}

func newGeometrySweep(tb testing.TB, accesses int) *geometrySweep {
	tb.Helper()
	p, err := workload.ByName("ft")
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := workload.Generate(p, workload.Options{Accesses: accesses, Threads: 4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		tb.Fatal(err)
	}
	caps, err := cache.CapacityLadder(32<<20, 8)
	if err != nil {
		tb.Fatal(err)
	}
	sys := sramMachine(4)
	geoms, err := cache.EnumerateGeoms(caps, sys.BlockBytes, sys.LLCWays)
	if err != nil {
		tb.Fatal(err)
	}
	g := &geometrySweep{
		src:  src,
		hier: gainestownHierarchy(),
		prof: profile.Config{BlockBytes: sys.BlockBytes, SetCounts: cache.SetCountsOf(geoms), MaxWays: sys.LLCWays},
	}
	for _, c := range caps {
		m := reference.SRAMBaseline()
		m.CapacityBytes = c
		m.Name = fmt.Sprintf("SRAM@%dKiB", c>>10)
		g.exact = append(g.exact, system.Gainestown(m).WithCores(4))
	}
	return g
}

// runExact simulates the trace on every capacity, one after another.
func (g *geometrySweep) runExact(sc *system.Scratch) error {
	for _, cfg := range g.exact {
		g.src.Reset()
		if _, err := system.RunStreamWith(context.Background(), cfg, g.src, sc); err != nil {
			return err
		}
	}
	return nil
}

// runProfiled answers every capacity from one filtered profile.
func (g *geometrySweep) runProfiled(sc *profile.Scratch) error {
	g.src.Reset()
	_, err := profile.RunFiltered(context.Background(), g.src, g.hier, g.prof, sc)
	return err
}

// BenchmarkProfile_8Geometries measures the profiled side of the
// geometry sweep: the functional L1/L2 filter plus stack profiling at
// eight LLC set counts, the single pass that replaces eight exact
// simulations. TestProfileSpeedupGate times it against the exact side.
func BenchmarkProfile_8Geometries(b *testing.B) {
	g := newGeometrySweep(b, 100_000)
	var sc profile.Scratch
	b.ReportAllocs()
	b.SetBytes(int64(g.src.Meta().Accesses))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.runProfiled(&sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProfileSpeedupGate fails when one reuse-distance profile answers
// the eight-capacity sweep less than profileSpeedupFloor times faster
// than simulating it exactly. Both sides run in the same process,
// interleaved and alternating which goes first, so host load slows both
// and the ratio of medians stays stable where absolute times do not.
func TestProfileSpeedupGate(t *testing.T) {
	const (
		profileSpeedupFloor = 3.0
		reps                = 7
	)
	g := newGeometrySweep(t, 50_000)
	var exactSc system.Scratch
	var profSc profile.Scratch
	timed := func(run func() error) float64 {
		t0 := time.Now()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(t0)) / 1e6
	}
	exact := func() error { return g.runExact(&exactSc) }
	profiled := func() error { return g.runProfiled(&profSc) }
	timed(exact) // warm both sides' scratch buffers
	timed(profiled)
	var exactMS, profMS []float64
	for i := 0; i < reps; i++ {
		if i%2 == 0 {
			exactMS = append(exactMS, timed(exact))
			profMS = append(profMS, timed(profiled))
		} else {
			profMS = append(profMS, timed(profiled))
			exactMS = append(exactMS, timed(exact))
		}
	}
	eq1, emed, eq3 := quartiles(exactMS)
	pq1, pmed, pq3 := quartiles(profMS)
	ratio := emed / pmed
	t.Logf("exact: median %.1f ms (q1 %.1f, q3 %.1f); profiled: median %.1f ms (q1 %.1f, q3 %.1f); %.2fx over %d runs",
		emed, eq1, eq3, pmed, pq1, pq3, ratio, reps)
	if ratio < profileSpeedupFloor {
		t.Errorf("profiled geometry sweep is %.2fx faster than exact simulation, floor %.1fx", ratio, profileSpeedupFloor)
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between closest ranks; it sorts xs in place.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		hi := min(lo+1, len(xs)-1)
		return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// BenchmarkTraceGen measures the synthetic trace generator's steady
// state: exact-size buffers, no per-access allocation.
func BenchmarkTraceGen(b *testing.B) {
	p, err := workload.ByName("ft")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := workload.Generate(p, workload.Options{Accesses: 100_000, Threads: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tr.Accesses)))
	}
}
