package system

// Tests that a long-lived Scratch sizes what it hands a run to that run's
// machine: construction allocates exactly the tag stores it needs, and a
// small machine after a large one uses only its own share of the
// storage the large one left behind.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"nvmllc/internal/cache"
	"nvmllc/internal/linetab"
	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// dirSlots is the directory view newDirectoryWith takes for lines.
func dirSlots(lines int) int {
	return newDirectoryWith(linetab.Table{}, lines).sharers.Slots()
}

// TestNewSimulatorAllocatesExactNeed: building the Zhang_R fixed-area
// machine (a 128 MiB LLC) on a fresh Scratch allocates its tag stores
// and directory once, at their exact size, plus a small constant — not
// the doubled arena a growing allocator would leave.
func TestNewSimulatorAllocatesExactNeed(t *testing.T) {
	zhang, err := reference.ModelByName(reference.FixedAreaModels(), "Zhang_R")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(zhang)
	threads := cfg.Cores
	var need cache.Need
	need.Add(cache.Config{Name: "LLC", CapacityBytes: cfg.LLC.CapacityBytes, BlockBytes: cfg.BlockBytes, Ways: cfg.LLCWays, Policy: cfg.LLCPolicy}, 1)
	need.Add(cache.Config{Name: "L1I", CapacityBytes: cfg.L1IBytes, BlockBytes: cfg.BlockBytes, Ways: cfg.L1IWays}, threads)
	need.Add(cache.Config{Name: "L1D", CapacityBytes: cfg.L1DBytes, BlockBytes: cfg.BlockBytes, Ways: cfg.L1DWays}, threads)
	need.Add(cache.Config{Name: "L2", CapacityBytes: cfg.L2Bytes, BlockBytes: cfg.BlockBytes, Ways: cfg.L2Ways}, threads)
	exact := uint64(8*need.Tags+need.Meta+8*need.Stamps) +
		16*uint64(dirSlots(threads*int(cfg.L2Bytes)/cfg.BlockBytes))
	const slack = 1 << 20

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := newSimulator([]Config{cfg}, trace.Meta{Threads: threads, Accesses: math.MaxInt64}, new(Scratch))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sim)
	got := after.TotalAlloc - before.TotalAlloc
	if got > exact+slack {
		t.Errorf("building Zhang_R allocated %.1f MB, want at most its exact need %.1f MB + %d KiB",
			float64(got)/1e6, float64(exact)/1e6, slack>>10)
	}
}

// TestDirectoryBoundedByAccesses: a short 32-thread run sizes its
// directory for the lines its trace can touch — at most one per access —
// rather than for 32 full L2s, and never needs to grow past that view.
func TestDirectoryBoundedByAccesses(t *testing.T) {
	const threads, accesses = 32, 48000
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewGenerator(p, workload.Options{Accesses: accesses, Threads: threads, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := int(src.Meta().Accesses)
	sc := new(Scratch)
	if _, err := RunStreamWith(context.Background(), sramConfig().WithCores(threads), src, sc); err != nil {
		t.Fatal(err)
	}
	l2Lines := int(sramConfig().L2Bytes) / sramConfig().BlockBytes
	got, want, full := sc.sharers.Slots(), dirSlots(n), dirSlots(threads*l2Lines)
	if got != want {
		t.Errorf("32-thread directory view = %d slots after a %d-access run, want %d", got, n, want)
	}
	if want >= full {
		t.Fatalf("access bound %d slots does not undercut the L2 bound %d slots", want, full)
	}
}

// TestScratchSmallRunAfterLarge: after a 16-core run, a 2-core run on the
// same Scratch takes a directory view sized for its own two L2s, on the
// large run's storage rather than a fresh allocation, and still
// reproduces a fresh Scratch's result. That a view clears and probes
// none of the storage past it is linetab's TestResetViewsOnlyItsSlots.
func TestScratchSmallRunAfterLarge(t *testing.T) {
	ctx := context.Background()
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc *Scratch, threads int) []byte {
		t.Helper()
		src, err := workload.NewGenerator(p, workload.Options{Accesses: 40000, Threads: threads, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunStreamWith(ctx, sramConfig().WithCores(threads), src, sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sc := new(Scratch)
	run(sc, 16)
	large, largeCap := sc.sharers.Slots(), sc.sharers.Cap()
	l2Lines := int(sramConfig().L2Bytes) / sramConfig().BlockBytes
	meta16, err := workload.NewGenerator(p, workload.Options{Accesses: 40000, Threads: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := dirSlots(min(16*l2Lines, int(meta16.Meta().Accesses))); large != want {
		t.Fatalf("16-core directory view = %d slots, want %d", large, want)
	}

	sim, err := newSimulator([]Config{sramConfig().WithCores(2)}, trace.Meta{Threads: 2, Accesses: 40000}, sc)
	if err != nil {
		t.Fatal(err)
	}
	view := sim.dir.sharers.Slots()
	if want := dirSlots(2 * l2Lines); view != want || want >= large {
		t.Fatalf("2-core directory view = %d slots, want %d (below the 16-core %d)", view, want, large)
	}
	if sim.dir.sharers.Cap() != largeCap {
		t.Fatal("the 2-core run reallocated the directory instead of viewing the recycled table")
	}
	sim.releaseScratch(sc)

	if got, want := run(sc, 2), run(new(Scratch), 2); !bytes.Equal(got, want) {
		t.Errorf("2-core result on a recycled Scratch differs from a fresh one\nrecycled: %s\nfresh:    %s", got, want)
	}
}
