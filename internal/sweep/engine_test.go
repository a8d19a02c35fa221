package sweep

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// TestSharedEngineAcrossFigures is the acceptance check for the shared
// experiment engine: running two figures back-to-back through one engine
// simulates each shared design point exactly once. Figure 1a
// (fixed-capacity) and Figure 2a (fixed-area) cover the same 11
// single-threaded workloads, and the SRAM baseline model is identical in
// both configuration blocks — so the second figure must hit the cache for
// exactly those 11 (workload, SRAM) points and simulate only the 110 NVM
// points fresh.
func TestSharedEngineAcrossFigures(t *testing.T) {
	eng := engine.New()
	cfg := Config{Opts: workload.Options{Accesses: 20000, Seed: 3}, Engine: eng}

	if _, err := Figure1a(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	s1 := eng.Stats()
	if s1.Simulated != 121 || s1.Cached != 0 {
		t.Fatalf("after Figure1a: %+v, want 121 simulated (11 workloads × 11 models)", s1)
	}

	if _, err := Figure2a(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	s2 := eng.Stats()
	if got := s2.Simulated - s1.Simulated; got != 110 {
		t.Errorf("Figure2a simulated %d new points, want 110 (SRAM baseline shared)", got)
	}
	if got := s2.Cached - s1.Cached; got != 11 {
		t.Errorf("Figure2a hit the cache %d times, want 11 (one SRAM point per workload)", got)
	}
	if s2.Failed != 0 {
		t.Errorf("failed = %d, want 0", s2.Failed)
	}
}

// TestRunFigureSecondCallFullyCached asserts a repeated identical figure
// performs zero new simulations and returns byte-identical numbers.
func TestRunFigureSecondCallFullyCached(t *testing.T) {
	eng := engine.New()
	cfg := Config{Opts: workload.Options{Accesses: 20000, Seed: 3}, Engine: eng}

	first, err := Figure1a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()

	second, err := Figure1a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.Simulated != before.Simulated {
		t.Errorf("second run simulated %d new points, want 0", after.Simulated-before.Simulated)
	}
	if got := after.Cached - before.Cached; got != 121 {
		t.Errorf("second run cached %d points, want 121", got)
	}
	if !reflect.DeepEqual(first.Speedup, second.Speedup) ||
		!reflect.DeepEqual(first.Energy, second.Energy) ||
		!reflect.DeepEqual(first.ED2P, second.ED2P) {
		t.Error("cached figure differs from the fresh one")
	}
}

// TestRunFigureCancellation cancels a figure mid-sweep and expects a
// prompt context.Canceled with partial progress recorded.
func TestRunFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := engine.New(engine.WithParallelism(2), engine.WithProgress(func(ev engine.Event) {
		cancel() // abort as soon as the first design point answers
	}))
	cfg := Config{Opts: workload.Options{Accesses: 300_000, Seed: 3}, Engine: eng}

	start := time.Now()
	_, err := Figure1a(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
	if eng.Stats().Jobs() == 121 {
		t.Error("every design point ran despite cancellation")
	}
}

func TestCellErrNoCell(t *testing.T) {
	fig, err := RunFigure(context.Background(), "one cell",
		reference.FixedCapacityModels(), []string{"bzip2"},
		Config{Opts: workload.Options{Accesses: 20000, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fig.Cell("bzip2", "Jan_S"); err != nil {
		t.Errorf("valid cell: %v", err)
	}
	for _, bad := range [][2]string{{"nosuch", "Jan_S"}, {"bzip2", "nosuch"}, {"bzip2", "SRAM"}} {
		_, _, _, err := fig.Cell(bad[0], bad[1])
		if !errors.Is(err, ErrNoCell) {
			t.Errorf("Cell(%s, %s) = %v, want ErrNoCell", bad[0], bad[1], err)
		}
	}
}

// TestConfigProgressCallback wires a progress callback through the
// config-built private engine.
func TestConfigProgressCallback(t *testing.T) {
	events := 0
	cfg := Config{
		Opts:     workload.Options{Accesses: 20000, Seed: 3},
		Progress: func(engine.Event) { events++ },
		// Serialize so the callback needs no locking.
		Parallelism: 1,
	}
	if _, err := RunFigure(context.Background(), "cb", reference.FixedCapacityModels(), []string{"bzip2"}, cfg); err != nil {
		t.Fatal(err)
	}
	if events != len(reference.FixedCapacityModels()) {
		t.Errorf("progress events = %d, want %d", events, len(reference.FixedCapacityModels()))
	}
}

// TestTableVISecondCallFullyCached: Table VI's features are engine jobs,
// so a second table on the same engine generates no trace and measures
// nothing; all 16 rows are feature-cache hits, identical to the first.
func TestTableVISecondCallFullyCached(t *testing.T) {
	eng := engine.New()
	cfg := Config{Opts: workload.Options{Accesses: 5000, Seed: 3}, Engine: eng}
	first, err := TableVI(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	if before.Features != 16 || before.TraceGens != 16 || before.Jobs() != 0 {
		t.Fatalf("first table: %d measured, %d traces generated, %d jobs; want 16, 16, 0", before.Features, before.TraceGens, before.Jobs())
	}
	second, err := TableVI(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("second Table VI differs from the first")
	}
	after := eng.Stats()
	if after.TraceGens != before.TraceGens || after.Features != before.Features || after.FeatureHits != 16 {
		t.Errorf("second table: %d traces generated, %d measured, %d feature hits; want 0, 0, 16",
			after.TraceGens-before.TraceGens, after.Features-before.Features, after.FeatureHits)
	}
}

// TestTableVITracesServeSimulations: the traces Table VI characterizes
// stay resident, so a simulation batch over the same workloads and
// options generates none of them again.
func TestTableVITracesServeSimulations(t *testing.T) {
	eng := engine.New()
	opts := workload.Options{Accesses: 5000, Seed: 3}
	if _, err := TableVI(context.Background(), Config{Opts: opts, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	names := workload.CharacterizedNames()
	jobs := make([]engine.Job, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = engine.StreamJob(p, opts, system.Gainestown(reference.SRAMBaseline()))
	}
	if _, err := eng.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if gens := after.TraceGens - before.TraceGens; gens != 0 || after.TraceShared-before.TraceShared != uint64(len(jobs)) {
		t.Errorf("simulation batch generated %d traces and shared %d, want 0 and %d", gens, after.TraceShared-before.TraceShared, len(jobs))
	}
}
