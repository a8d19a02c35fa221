package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nvmllc/internal/prism"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// testFeatureJobs builds one streaming feature job per named workload.
func testFeatureJobs(t *testing.T, opts workload.Options, names ...string) []FeatureJob {
	t.Helper()
	jobs := make([]FeatureJob, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = StreamFeatureJob(p, opts, prism.Config{})
	}
	return jobs
}

// wholeTraceFeatures characterizes a materialized trace, the way the
// features were measured before they were engine jobs.
func wholeTraceFeatures(t *testing.T, name string, opts workload.Options) prism.Features {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prism.Characterize(tr, prism.Config{})
}

// TestCharacterizeMatchesWholeTrace: features measured through the share
// layer, streamed past an exceeded share budget or with sharing off all
// equal a whole-trace characterization, in job order.
func TestCharacterizeMatchesWholeTrace(t *testing.T) {
	opts := smallOpts()
	names := []string{"bzip2", "cg", "leela"}
	want := make([]prism.Features, len(names))
	for i, name := range names {
		want[i] = wholeTraceFeatures(t, name, opts)
	}
	for _, tc := range []struct {
		label    string
		opts     []Option
		limit    int64 // the share budget in bytes; 0 keeps the default
		wantGens uint64
	}{
		{"shared", nil, 0, uint64(len(names))},
		{"over budget", nil, 1024, 0},
		{"sharing off", []Option{WithoutTraceSharing()}, 0, 0},
	} {
		e := New(append(tc.opts, WithParallelism(2))...)
		if tc.limit != 0 {
			e.shareLimit = tc.limit
		}
		got, err := e.Characterize(context.Background(), testFeatureJobs(t, opts, names...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: features differ from a whole-trace characterization", tc.label)
		}
		if s := e.Stats(); s.TraceGens != tc.wantGens || s.Features != uint64(len(names)) {
			t.Errorf("%s: %d traces generated, %d measured; want %d and %d", tc.label, s.TraceGens, s.Features, tc.wantGens, len(names))
		}
	}
}

// TestCharacterizeMemoizes: a second batch over the same traces is
// answered from the feature cache without touching the share layer, and
// a different prism.Config is a different feature job over the same
// retained trace.
func TestCharacterizeMemoizes(t *testing.T) {
	e := New()
	ctx := context.Background()
	jobs := testFeatureJobs(t, smallOpts(), "bzip2", "cg")
	first, err := e.Characterize(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	second, err := e.Characterize(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memoized features differ from the measured ones")
	}
	s := e.Stats()
	if s.Features != 2 || s.FeatureHits != 2 || s.TraceGens != before.TraceGens || s.TraceShared != before.TraceShared {
		t.Errorf("second batch: %d measured / %d hits, traces %d/%d generated/shared (were %d/%d); want 2/2 and no trace activity",
			s.Features, s.FeatureHits, s.TraceGens, s.TraceShared, before.TraceGens, before.TraceShared)
	}
	coarse := jobs[0]
	coarse.Config.LocalSkipBits = 12
	if _, err := e.Characterize(ctx, []FeatureJob{coarse}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Features != 3 || s.TraceGens != 2 || s.TraceShared != 1 {
		t.Errorf("new config: %d measured, %d/%d traces generated/shared; want 3, 2/1", s.Features, s.TraceGens, s.TraceShared)
	}
}

// TestCharacterizeIsNotADesignPoint: feature jobs emit no progress Event
// and leave the design-point counters, Accesses and SimWallNS alone.
func TestCharacterizeIsNotADesignPoint(t *testing.T) {
	var events atomic.Int64
	e := New(WithProgress(func(Event) { events.Add(1) }))
	jobs := testFeatureJobs(t, smallOpts(), "bzip2", "cg")
	for range 2 {
		if _, err := e.Characterize(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if events.Load() != 0 || s.Jobs() != 0 || s.Accesses != 0 || s.SimWallNS != 0 || s.Passes != 0 {
		t.Errorf("feature jobs: %d events, %d jobs, %d accesses, %d ns sim wall, %d passes; want all 0",
			events.Load(), s.Jobs(), s.Accesses, s.SimWallNS, s.Passes)
	}
	if s.Features != 2 || s.FeatureHits != 2 {
		t.Errorf("feature counters %d/%d, want 2/2", s.Features, s.FeatureHits)
	}
}

// TestCharacterizeWithoutCache: with the cache off every call measures
// again, and still replays the retained traces.
func TestCharacterizeWithoutCache(t *testing.T) {
	e := New(WithoutCache())
	jobs := testFeatureJobs(t, smallOpts(), "bzip2", "cg")
	for range 3 {
		if _, err := e.Characterize(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Features != 6 || s.FeatureHits != 0 || s.TraceGens != 2 {
		t.Errorf("without cache: %d measured / %d hits, %d traces generated; want 6/0, 2", s.Features, s.FeatureHits, s.TraceGens)
	}
}

// TestCharacterizeCancellationMidBatch: a cancellation keeps the features
// already measured and fails every job not yet started with the context
// error, without calling its source; a failure is not cached.
func TestCharacterizeCancellationMidBatch(t *testing.T) {
	e := New(WithParallelism(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]FeatureJob, 6)
	var opened [6]atomic.Int64
	for i := range jobs {
		jobs[i] = testFeatureJobs(t, workload.Options{Accesses: 5000, Seed: int64(i + 1)}, "bzip2")[0]
		gen := jobs[i].Source
		jobs[i].Source = func() (trace.ChunkSource, error) {
			opened[i].Add(1)
			if i == 1 {
				cancel()
			}
			return gen()
		}
	}
	got, err := e.Characterize(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got[0].TotalReads == 0 {
		t.Error("cancellation discarded the first job's features")
	}
	for i := 2; i < len(jobs); i++ {
		if opened[i].Load() != 0 || got[i] != (prism.Features{}) {
			t.Errorf("job %d started after the cancellation", i)
		}
	}
	if s := e.Stats(); s.Features != 1 {
		t.Errorf("%d measured, want 1", s.Features)
	}
	// The failed job was not cached: a fresh context measures it.
	if _, err := e.Characterize(context.Background(), jobs[1:2]); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Features != 2 || s.FeatureHits != 0 {
		t.Errorf("after retry: %d measured / %d hits, want 2/0", s.Features, s.FeatureHits)
	}
}

// TestCharacterizeConcurrentCalls: concurrent batches over the same
// traces agree and measure each trace once (run under -race in tier 1).
func TestCharacterizeConcurrentCalls(t *testing.T) {
	e := New(WithParallelism(2))
	jobs := testFeatureJobs(t, workload.Options{Accesses: 5000, Seed: 3}, "bzip2", "cg", "leela", "lu")
	const callers = 4
	out := make([][]prism.Features, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if out[c], err = e.Characterize(context.Background(), jobs); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		if !reflect.DeepEqual(out[c], out[0]) {
			t.Errorf("caller %d's features differ from caller 0's", c)
		}
	}
	s := e.Stats()
	if s.Features != uint64(len(jobs)) || s.Features+s.FeatureHits != callers*uint64(len(jobs)) || s.TraceGens != uint64(len(jobs)) {
		t.Errorf("%d measured / %d hits, %d traces generated; want %d measured of %d requests, %d traces",
			s.Features, s.FeatureHits, s.TraceGens, len(jobs), callers*len(jobs), len(jobs))
	}
}

// TestCharacterizeNoSource: a job without a source fails, labeled with
// its workload, and the rest of the batch still completes.
func TestCharacterizeNoSource(t *testing.T) {
	jobs := testFeatureJobs(t, smallOpts(), "bzip2", "cg")
	jobs[0].Source = nil
	got, err := New().Characterize(context.Background(), jobs)
	if err == nil || got[1].TotalReads == 0 {
		t.Fatalf("err %v, second job's reads %d; want an error and the second job measured", err, got[1].TotalReads)
	}
}
