package nvmllc_test

// Allocation gate for the streaming trace pipeline: the chunked
// double-buffer exists to make simulation memory O(chunk), so a
// regression that re-introduces per-access or per-chunk allocation must
// fail CI, not just drift a measured number. The gate replays the
// BenchmarkHotLoop_Streaming configuration, compares allocations per
// run against streamingAllocBudget, and checks that they do not grow
// with the number of chunks the ring reads.

import (
	"context"
	"testing"

	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// streamingAllocBudget is the allocations per run of the generator-fed
// 64-core streaming configuration (BenchmarkHotLoop_Streaming), as the
// baseline leg measures it (295 on a 2-CPU linux/amd64 host, Go 1.24).
// The ring's allocations are O(ring depth), so the figure is fixed per
// run; the limits below add slack for runtime jitter. A change that
// lowers it for good should lower the budget with it.
const streamingAllocBudget = 295

func TestStreamingAllocGate(t *testing.T) {
	const budget = streamingAllocBudget
	const cores = 64
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.Gainestown(reference.SRAMBaseline()).WithCores(cores)

	// measure returns the allocations per warmed run of a generator-fed
	// streaming simulation, and the chunks each run reads.
	measure := func(t *testing.T, cfg system.Config, accesses int) (allocs, chunks int) {
		gen, err := workload.NewGenerator(p, workload.Options{Accesses: accesses, Threads: cores, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := &chunkCounter{Generator: gen}
		var scratch system.Scratch
		run := func() {
			src.Reset()
			src.chunks = 0
			if _, err := system.RunStreamWith(context.Background(), cfg, src, &scratch); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch buffers, as the benchmark's steady state does
		return int(testing.AllocsPerRun(5, run)), src.chunks
	}

	t.Run("baseline", func(t *testing.T) {
		got, _ := measure(t, cfg, 100_000)
		// 25% slack plus a small absolute floor absorbs runtime-internal
		// allocation jitter (goroutine wakeups, channel ops) without letting a
		// real per-chunk regression through.
		limit := budget + budget/4 + 16
		t.Logf("%d allocs per run (budget %d, limit %d)", got, budget, limit)
		if got > limit {
			t.Errorf("streaming run allocates %d objects, budget %d (limit %d): the chunked pipeline must stay allocation-free per chunk", got, budget, limit)
		}
	})

	t.Run("chunk-scaling", func(t *testing.T) {
		// The ring pipeline's allocations are O(ring depth), not
		// O(chunks): a trace with 3× the chunks must fit the same budget
		// as the baseline, and its extra chunks must cost fewer than one
		// allocation each, or something is allocating per chunk (slot
		// churn, segment-queue growth, lane re-allocation). The budget's
		// slack alone is too wide to see one allocation per chunk.
		base, baseChunks := measure(t, cfg, 100_000)
		got, chunks := measure(t, cfg, 300_000)
		limit := budget + budget/4 + 16
		t.Logf("%d allocs per run over %d chunks, %d over %d (budget %d, limit %d)", got, chunks, base, baseChunks, budget, limit)
		if got > limit {
			t.Errorf("3× chunk count allocates %d objects vs budget %d (limit %d): ring allocations must not scale with chunk count", got, budget, limit)
		}
		if extra := chunks - baseChunks; got-base >= extra {
			t.Errorf("%d more chunks cost %d more allocations (%d vs %d): ring allocations must not scale with chunk count", extra, got-base, got, base)
		}
	})

	t.Run("sampling", func(t *testing.T) {
		// Epoch sampling on top of the streaming pipeline must stay
		// O(points): the timeline's fixed-budget buffers, its snapshot, and
		// the per-set heatmap — never per-access or per-chunk allocation.
		// The absolute floor covers those fixed structures (timeline buffer
		// growth, snapshot backing array, wear grid); everything else is the
		// same budget as the unsampled gate.
		sampled := cfg
		sampled.TrackWear = true
		sampled.Timeline = &system.TimelineConfig{}
		got, _ := measure(t, sampled, 100_000)
		limit := budget + budget/4 + 80
		t.Logf("%d allocs per run with sampling (budget %d, limit %d)", got, budget, limit)
		if got > limit {
			t.Errorf("sampled streaming run allocates %d objects, budget %d (limit %d): epoch sampling must stay O(points), not O(accesses)", got, budget, limit)
		}
	})
}

// chunkCounter is a generator that counts the chunks the ring reads.
type chunkCounter struct {
	*workload.Generator
	chunks int
}

func (c *chunkCounter) ReadChunk(buf []trace.Access) (int, error) {
	n, err := c.Generator.ReadChunk(buf)
	if n > 0 {
		c.chunks++
	}
	return n, err
}
