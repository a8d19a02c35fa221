package nvmllc_test

// Hot-loop micro-benchmarks behind BENCH_hotloop.json (see the README's
// Performance section). BenchmarkHotLoop_{4,16,64}Cores isolate the
// simulator's per-access path — the streaming ring fed from a
// materialized trace, the min-heap core scheduler and the hierarchy walk
// — at the paper's Section V-C core counts; BenchmarkTraceGen isolates
// the synthetic workload generator. Run with -benchmem; cmd/benchreport
// re-measures the same loops with faults, sampling and generator input
// and writes the committed baseline.

import (
	"context"
	"testing"

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
// committed budget is <5% (cmd/benchreport pins it in
// BENCH_hotloop.json's sampling comparison).
func BenchmarkHotLoop_Sampling(b *testing.B) {
	cfg := sramMachine(64)
	cfg.Timeline = &system.TimelineConfig{}
	benchHotLoop(b, cfg)
}

// BenchmarkHotLoop_Streaming measures the streaming pipeline fed straight
// from the generator at the 64-core configuration, where a materialized
// trace costs the most memory: the generator produces chunk N+1 while
// the simulator consumes chunk N, and per-iteration memory stays
// O(chunk) regardless of trace length (the bytes/op here is the
// BENCH_hotloop.json allocation-gate baseline; see
// TestStreamingAllocGate). Trace synthesis sits inside the timed region,
// so on a single-CPU runner this carries the full TraceGen cost on top
// of the pipeline.
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

// BenchmarkProfile_8Geometries measures the reuse-distance profile's fused
// pass: the functional L1/L2 filter plus stack profiling at eight LLC
// set counts (256 KiB to 32 MiB), the single pass that replaces eight
// exact simulations. Compare against 8× BenchmarkHotLoop_4Cores;
// cmd/benchreport pins the ratio in BENCH_hotloop.json's profile
// comparison and CI gates it at ≥3×.
func BenchmarkProfile_8Geometries(b *testing.B) {
	tr := hotLoopTrace(b, 4)
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		b.Fatal(err)
	}
	caps, err := cache.CapacityLadder(32<<20, 8)
	if err != nil {
		b.Fatal(err)
	}
	geoms, err := cache.EnumerateGeoms(caps, 64, 16)
	if err != nil {
		b.Fatal(err)
	}
	cfg := profile.Config{BlockBytes: 64, SetCounts: cache.SetCountsOf(geoms), MaxWays: 16}
	h := gainestownHierarchy()
	var sc profile.Scratch
	b.ReportAllocs()
	b.SetBytes(int64(len(tr.Accesses)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		if _, err := profile.RunFiltered(context.Background(), src, h, cfg, &sc); err != nil {
			b.Fatal(err)
		}
	}
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
