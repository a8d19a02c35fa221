package engine

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// sweepJobs builds a technology sweep over one workload: points design
// points differing only in the LLC model/latency — distinct result-cache
// keys, one shareable trace. gens counts how many times any job's source
// factory actually got constructed and consumed.
func sweepJobs(t *testing.T, points int, gens *atomic.Uint64) []Job {
	t.Helper()
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{Accesses: 20000, Threads: 4, Seed: 7}
	models := reference.FixedCapacityModels()
	if len(models) < points {
		t.Fatalf("need %d LLC models, reference set has %d", points, len(models))
	}
	jobs := make([]Job, points)
	for i := 0; i < points; i++ {
		cfg := system.Gainestown(models[i]).WithCores(4)
		jobs[i] = Job{
			Workload:  p.Name,
			TraceOpts: opts,
			Config:    cfg,
			Source: func() (trace.ChunkSource, error) {
				gens.Add(1)
				return workload.NewGenerator(p, opts)
			},
		}
	}
	return jobs
}

// TestTraceSharingByteIdentical: an 8-point technology sweep must
// materialize its trace once, answer the other seven design points from
// the shared slice, and produce results byte-identical to the same jobs
// run with sharing disabled.
func TestTraceSharingByteIdentical(t *testing.T) {
	const points = 8
	var gens atomic.Uint64
	jobs := sweepJobs(t, points, &gens)

	e := New()
	got, err := e.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.TraceGens != 1 {
		t.Errorf("sweep materialized the trace %d times, want 1", st.TraceGens)
	}
	if st.TraceShared != points-1 {
		t.Errorf("TraceShared = %d, want %d", st.TraceShared, points-1)
	}
	if st.Simulated != points {
		t.Errorf("Simulated = %d, want %d (every design point is a distinct config)", st.Simulated, points)
	}

	var gensOff atomic.Uint64
	off := New(WithoutTraceSharing())
	want, err := off.RunAll(context.Background(), sweepJobs(t, points, &gensOff))
	if err != nil {
		t.Fatal(err)
	}
	if stOff := off.Stats(); stOff.TraceGens != 0 || stOff.TraceShared != 0 {
		t.Errorf("sharing-disabled engine reported TraceGens=%d TraceShared=%d, want 0/0", stOff.TraceGens, stOff.TraceShared)
	}
	if gensOff.Load() != points {
		t.Errorf("sharing disabled: %d source constructions, want %d", gensOff.Load(), points)
	}
	for i := range jobs {
		gb, wb := marshal(t, got[i]), marshal(t, want[i])
		if !bytes.Equal(gb, wb) {
			t.Errorf("design point %d: shared-trace result differs from unshared\nshared:   %s\nunshared: %s", i, gb, wb)
		}
	}
}

// TestTraceSharingSerializedWorkers: RunAll pins shares for the batch,
// so a fully serialized pool (parallelism 1, where per-job refcounts
// drop to zero between jobs) still generates once per sweep.
func TestTraceSharingSerializedWorkers(t *testing.T) {
	var gens atomic.Uint64
	e := New(WithParallelism(1))
	if _, err := e.RunAll(context.Background(), sweepJobs(t, 8, &gens)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TraceGens != 1 || st.TraceShared != 7 {
		t.Errorf("serialized sweep: TraceGens=%d TraceShared=%d, want 1/7", st.TraceGens, st.TraceShared)
	}
}

// TestTraceSharingShareLimit: traces over the configured byte limit are
// not materialized — every job streams from its own source — and results
// are unchanged.
func TestTraceSharingShareLimit(t *testing.T) {
	var gens atomic.Uint64
	jobs := sweepJobs(t, 4, &gens)
	// 20000 accesses × 16 B = 320 kB; a 1 kB limit forces pass-through.
	e := New(WithTraceShareLimit(1024))
	got, err := e.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TraceGens != 0 || st.TraceShared != 0 {
		t.Errorf("over-limit sweep: TraceGens=%d TraceShared=%d, want 0/0", st.TraceGens, st.TraceShared)
	}
	var gensOff atomic.Uint64
	off := New(WithoutTraceSharing())
	want, err := off.RunAll(context.Background(), sweepJobs(t, 4, &gensOff))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !bytes.Equal(marshal(t, got[i]), marshal(t, want[i])) {
			t.Errorf("design point %d: over-limit result differs from unshared", i)
		}
	}
}

// TestTraceSharingSkipsIneligibleJobs: NoCache jobs, whose provenance
// the share key cannot capture, never participate in sharing.
func TestTraceSharingSkipsIneligibleJobs(t *testing.T) {
	var gens atomic.Uint64
	jobs := sweepJobs(t, 2, &gens)
	jobs[0].NoCache = true
	jobs[1].NoCache = true
	e := New()
	if _, err := e.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TraceGens != 0 || st.TraceShared != 0 {
		t.Errorf("NoCache jobs shared traces: TraceGens=%d TraceShared=%d", st.TraceGens, st.TraceShared)
	}
	if gens.Load() != 2 {
		t.Errorf("NoCache jobs constructed %d sources, want 2", gens.Load())
	}
}

// TestTraceSharingWithResultCache: identical design points still dedup
// through the result cache — only distinct configs simulate, and only
// the simulations touch the sharing layer.
func TestTraceSharingWithResultCache(t *testing.T) {
	var gens atomic.Uint64
	jobs := sweepJobs(t, 4, &gens)
	jobs = append(jobs, jobs...) // every point submitted twice
	e := New()
	if _, err := e.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Simulated != 4 || st.Cached != 4 {
		t.Errorf("Simulated=%d Cached=%d, want 4/4", st.Simulated, st.Cached)
	}
	if st.TraceGens != 1 || st.TraceShared != 3 {
		t.Errorf("TraceGens=%d TraceShared=%d, want 1/3 (cache hits never reach the sharing layer)", st.TraceGens, st.TraceShared)
	}
}

// TestTraceBuffersRecycleUpToWorkers: a batch's end hands back every
// shared trace at once, and the engine keeps at most one buffer per
// worker for the next batch.
func TestTraceBuffersRecycleUpToWorkers(t *testing.T) {
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	sram := system.Gainestown(reference.SRAMBaseline()).WithCores(4)
	nvm := system.Gainestown(reference.FixedCapacityModels()[1]).WithCores(4)
	var jobs []Job
	for seed := int64(1); seed <= 4; seed++ {
		opts := workload.Options{Accesses: 5000, Threads: 4, Seed: seed}
		jobs = append(jobs, StreamJob(p, opts, sram), StreamJob(p, opts, nvm))
	}
	e := New(WithParallelism(2))
	if _, err := e.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.TraceGens != 4 {
		t.Fatalf("TraceGens = %d, want 4", st.TraceGens)
	}
	if n := len(e.traceBufs); n != e.Workers() {
		t.Errorf("free list holds %d buffers after a 4-trace batch, want %d (one per worker)", n, e.Workers())
	}
}
