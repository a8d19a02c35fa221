package engine

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"nvmllc/internal/profile"
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
	e := New()
	e.shareLimit = 1024
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

// retentionJob builds a 1-core generator-backed job over ft seed seed
// on LLC model idx of the fixed-capacity set: short traces, distinct
// share keys per seed, distinct result keys per model.
func retentionJob(t *testing.T, seed int64, idx int) Job {
	t.Helper()
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{Accesses: 4000, Threads: 1, Seed: seed}
	return StreamJob(p, opts, system.Gainestown(reference.FixedCapacityModels()[idx]).WithCores(1))
}

// TestTraceRetainedAcrossRuns: two serial Runs of one trace under two
// LLC configs generate the trace once — the first job's trace stays
// resident after its last reference drops, and the second revives it.
func TestTraceRetainedAcrossRuns(t *testing.T) {
	e := New()
	for idx := 0; idx < 2; idx++ {
		if _, err := e.Run(context.Background(), retentionJob(t, 1, idx)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Simulated != 2 || st.TraceGens != 1 || st.TraceShared != 1 {
		t.Errorf("Simulated=%d TraceGens=%d TraceShared=%d, want 2/1/1", st.Simulated, st.TraceGens, st.TraceShared)
	}
	want := int64(jobAccesses(t, retentionJob(t, 1, 0))) * shareBytesPerAccess
	if st.TraceRetainedBytes != want {
		t.Errorf("TraceRetainedBytes = %d, want %d (one retained trace)", st.TraceRetainedBytes, want)
	}
	if !contains(st.String(), "MiB traces held") {
		t.Errorf("Stats.String() = %q lacks the held-trace bytes", st.String())
	}
}

// heldKeys lists the share keys the engine holds, checking the
// bookkeeping on the way: every held entry is unreferenced and on the
// idle list, and the byte total is the sum of their buffers.
func heldKeys(t *testing.T, e *Engine) map[traceID]bool {
	t.Helper()
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	keys := make(map[traceID]bool)
	var bytes int64
	for k, sh := range e.shares {
		if sh.refs != 0 || sh.elem == nil || sh.accs == nil {
			t.Errorf("entry %v: refs=%d, idle=%v, materialized=%v after every job returned", k, sh.refs, sh.elem != nil, sh.accs != nil)
		}
		keys[k] = true
		bytes += sh.bytes
	}
	if bytes != e.retainedBytes.Load() || e.idle.Len() != len(e.shares) {
		t.Errorf("held %d bytes over %d idle entries, bookkeeping says %d bytes over %d", bytes, len(e.shares), e.retainedBytes.Load(), e.idle.Len())
	}
	return keys
}

// TestTraceRetentionEvictsLRU: under a budget of two traces, a third
// trace evicts the least recently used retained one (not the one just
// revived) and takes over its buffer; referenced entries are never
// evicted, even when they hold more than the budget.
func TestTraceRetentionEvictsLRU(t *testing.T) {
	ctx := context.Background()
	traceBytes := int64(jobAccesses(t, retentionJob(t, 1, 0))) * shareBytesPerAccess
	e := New()
	e.shareLimit = 2 * traceBytes
	key := func(seed int64) traceID {
		k, _ := shareKey(retentionJob(t, seed, 0))
		return k
	}
	run := func(seed int64, idx int) {
		t.Helper()
		if _, err := e.Run(ctx, retentionJob(t, seed, idx)); err != nil {
			t.Fatal(err)
		}
	}
	run(1, 0)
	run(2, 0)
	run(1, 1) // revives trace 1: trace 2 is now the least recently used
	e.shareMu.Lock()
	victimBuf := &e.shares[key(2)].accs[0]
	e.shareMu.Unlock()
	run(3, 0)
	if held := heldKeys(t, e); !held[key(1)] || held[key(2)] || !held[key(3)] {
		t.Errorf("after a third trace the engine holds %v, want traces 1 and 3", held)
	}
	e.shareMu.Lock()
	reused := &e.shares[key(3)].accs[0] == victimBuf
	e.shareMu.Unlock()
	if !reused {
		t.Error("the new trace did not reuse the evicted trace's buffer")
	}
	if st := e.Stats(); st.TraceGens != 3 || st.TraceShared != 1 {
		t.Errorf("TraceGens=%d TraceShared=%d, want 3/1", st.TraceGens, st.TraceShared)
	}

	// Three referenced traces exceed the two-trace budget: none may be
	// evicted while pinned, and the budget is restored on release.
	pinned := []Job{retentionJob(t, 4, 0), retentionJob(t, 5, 0), retentionJob(t, 6, 0)}
	unpin := e.pinShares(shareKeys(pinned))
	for _, j := range pinned {
		if _, err := e.Run(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	e.shareMu.Lock()
	for _, seed := range []int64{4, 5, 6} {
		if sh := e.shares[key(seed)]; sh == nil || sh.accs == nil {
			t.Errorf("pinned trace %d was evicted", seed)
		}
	}
	if e.retainedBytes.Load() != 3*traceBytes {
		t.Errorf("pinned traces hold %d bytes, want %d", e.retainedBytes.Load(), 3*traceBytes)
	}
	e.shareMu.Unlock()
	unpin()
	if held := heldKeys(t, e); len(held) != 2 || !held[key(5)] || !held[key(6)] {
		t.Errorf("after unpinning the engine holds %v, want the two most recently released traces", held)
	}
	if st := e.Stats(); st.TraceRetainedBytes != 2*traceBytes {
		t.Errorf("TraceRetainedBytes = %d, want the %d-byte budget", st.TraceRetainedBytes, 2*traceBytes)
	}
}

// TestTraceRetentionConcurrent drives acquire, release and eviction from
// many goroutines at once — single Runs, batches and profile jobs over
// six traces under a three-trace budget, with the result cache off so
// every job reaches the sharing layer. Every result must match an
// unshared engine's, and the bookkeeping must balance once all return.
// The race pass of tier-1 runs it under the race detector.
func TestTraceRetentionConcurrent(t *testing.T) {
	ctx := context.Background()
	const seeds, models = 6, 2
	traceBytes := int64(jobAccesses(t, retentionJob(t, 1, 0))) * shareBytesPerAccess
	ref := New(WithoutTraceSharing())
	want := make(map[[2]int64][]byte)
	for seed := int64(1); seed <= seeds; seed++ {
		for idx := 0; idx < models; idx++ {
			r, err := ref.Run(ctx, retentionJob(t, seed, idx))
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int64{seed, int64(idx)}] = marshal(t, r)
		}
	}

	e := New(WithoutCache(), WithParallelism(4))
	e.shareLimit = 3 * traceBytes
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed int64, idx int, r *system.Result) {
		if got := marshal(t, r); !bytes.Equal(got, want[[2]int64{seed, int64(idx)}]) {
			t.Errorf("seed %d model %d: result differs from the unshared engine", seed, idx)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seed := int64((g+i)%seeds + 1)
				idx := (g + i) % models
				switch i % 3 {
				case 0:
					r, err := e.Run(ctx, retentionJob(t, seed, idx))
					if err != nil {
						t.Error(err)
						return
					}
					check(seed, idx, r)
				case 1:
					other := seed%seeds + 1
					rs, err := e.RunAll(ctx, []Job{retentionJob(t, seed, idx), retentionJob(t, other, idx)})
					if err != nil {
						t.Error(err)
						return
					}
					check(seed, idx, rs[0])
					check(other, idx, rs[1])
				case 2:
					j := retentionJob(t, seed, idx)
					if _, err := e.RunProfile(ctx, StreamProfileJob(p, j.TraceOpts, profile.Config{SetCounts: []int{64}})); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	heldKeys(t, e)
	if st := e.Stats(); st.TraceRetainedBytes > 3*traceBytes {
		t.Errorf("TraceRetainedBytes = %d after every job returned, over the %d-byte budget", st.TraceRetainedBytes, 3*traceBytes)
	}
	if st := e.Stats(); st.TraceGens < seeds || st.TraceShared == 0 {
		t.Errorf("TraceGens=%d TraceShared=%d: want every trace generated and some shared", st.TraceGens, st.TraceShared)
	}
}

// shareKeys lists the jobs' share keys, as RunAll pins them.
func shareKeys(jobs []Job) []traceID {
	keys := make([]traceID, len(jobs))
	for i, j := range jobs {
		keys[i], _ = shareKey(j)
	}
	return keys
}
