package engine

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// testJob builds a small deterministic design point.
func testJob(t *testing.T, name string, opts workload.Options) Job {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return StreamJob(p, opts, system.Gainestown(reference.SRAMBaseline()))
}

// jobAccesses is the trace length a job's source declares.
func jobAccesses(t *testing.T, j Job) uint64 {
	t.Helper()
	src, err := j.Source()
	if err != nil {
		t.Fatal(err)
	}
	return uint64(src.Meta().Accesses)
}

func smallOpts() workload.Options {
	return workload.Options{Accesses: 20000, Seed: 7}
}

func TestRunCachesSecondCall(t *testing.T) {
	e := New()
	j := testJob(t, "bzip2", smallOpts())
	r1, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Simulated != 1 || s.Cached != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 1 cached", s)
	}
	if r1 != r2 {
		t.Error("cache did not return the memoized result")
	}
	if want := jobAccesses(t, j); s.Accesses != want {
		t.Errorf("accesses = %d, want %d (cache hits must not recount)", s.Accesses, want)
	}
}

func TestCachedEqualsFresh(t *testing.T) {
	j := testJob(t, "bzip2", smallOpts())

	shared := New()
	if _, err := shared.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	cached, err := shared.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := New(WithoutCache()).Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, fresh) {
		t.Errorf("cached result differs from fresh simulation:\ncached: %+v\nfresh:  %+v", cached, fresh)
	}
}

func TestWithoutCacheSimulatesEveryTime(t *testing.T) {
	e := New(WithoutCache())
	j := testJob(t, "bzip2", smallOpts())
	for i := 0; i < 2; i++ {
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Simulated != 2 || s.Cached != 0 {
		t.Fatalf("stats = %+v, want 2 simulated / 0 cached", s)
	}
}

func TestRunAllDedupesIdenticalJobs(t *testing.T) {
	e := New()
	j := testJob(t, "bzip2", smallOpts())
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = j
	}
	results, err := e.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r != results[0] {
			t.Errorf("result %d not deduplicated", i)
		}
	}
	if s := e.Stats(); s.Simulated != 1 || s.Cached != 7 {
		t.Fatalf("stats = %+v, want 1 simulated / 7 cached (singleflight)", s)
	}
}

func TestRunAllPartialResultsOnFailure(t *testing.T) {
	e := New()
	good := testJob(t, "bzip2", smallOpts())
	// A trace with more threads than cores fails system.Run validation.
	badOpts := workload.Options{Accesses: 20000, Seed: 7, Threads: 8}
	bad := testJob(t, "ft", badOpts)
	bad.Config = bad.Config.WithCores(4)

	results, err := e.RunAll(context.Background(), []Job{good, bad})
	if err == nil {
		t.Fatal("want joined error for the failing job")
	}
	if results[0] == nil {
		t.Error("successful job's result dropped")
	}
	if results[1] != nil {
		t.Error("failed job has a result")
	}
	if s := e.Stats(); s.Simulated != 1 || s.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 1 failed", s)
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	e := New()
	badOpts := workload.Options{Accesses: 20000, Seed: 7, Threads: 8}
	bad := testJob(t, "ft", badOpts)
	bad.Config = bad.Config.WithCores(4)
	for i := 0; i < 2; i++ {
		if _, err := e.Run(context.Background(), bad); err == nil {
			t.Fatal("invalid job accepted")
		}
	}
	if s := e.Stats(); s.Failed != 2 || s.Cached != 0 {
		t.Fatalf("stats = %+v, want both attempts to fail fresh (no caching of failures)", s)
	}
}

func TestRunCancellationIsPrompt(t *testing.T) {
	e := New()
	// A multi-million-access run takes far longer than the cancellation
	// budget, so a prompt return proves the hot loop honors the context.
	j := testJob(t, "cg", workload.Options{Accesses: 4_000_000, Seed: 7})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.Run(ctx, j)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: under -race the simulator runs ~15x slower, but a
	// full 4M-access run would still take minutes, not seconds.
	if elapsed > 15*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
	if s := e.Stats(); s.Failed != 1 {
		t.Errorf("stats = %+v, want the aborted run counted as failed", s)
	}
}

func TestRunAllCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var events atomic.Int64
	e := New(WithParallelism(2), WithProgress(func(Event) {
		// Cancel as soon as the first design point completes: the rest of
		// the sweep must abort instead of running to completion.
		if events.Add(1) == 1 {
			cancel()
		}
	}))
	opts := workload.Options{Accesses: 400_000, Seed: 7}
	var jobs []Job
	for _, name := range []string{"bzip2", "cg", "mg", "is", "ua", "ft"} {
		jobs = append(jobs, testJob(t, name, opts))
	}
	results, err := e.RunAll(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := 0
	for _, r := range results {
		if r != nil {
			done++
		}
	}
	if done == len(jobs) {
		t.Error("every job completed despite cancellation")
	}
	if s := e.Stats(); s.Jobs() == 0 {
		t.Error("no partial progress recorded")
	}
}

func TestRunOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New()
	if _, err := e.Run(ctx, testJob(t, "bzip2", smallOpts())); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.Jobs() != 0 {
		t.Errorf("stats = %+v, want no work on a dead context", s)
	}
}

func TestJoinedErrorsLabelDesignPoints(t *testing.T) {
	e := New()
	badOpts := workload.Options{Accesses: 20000, Seed: 7, Threads: 8}
	bad := testJob(t, "ft", badOpts)
	bad.Config = bad.Config.WithCores(4)
	_, err := e.RunAll(context.Background(), []Job{bad})
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{"engine:", "ft", "SRAM"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestKeyDeterministicAndDiscriminating(t *testing.T) {
	j := testJob(t, "bzip2", smallOpts())
	k1, ok := Key(j)
	if !ok || k1 == "" {
		t.Fatal("cacheable job has no key")
	}
	k2, _ := Key(j)
	if k1 != k2 {
		t.Error("key not deterministic")
	}

	other := j
	other.TraceOpts.Seed = 99
	if k, _ := Key(other); k == k1 {
		t.Error("seed change did not change the key")
	}
	other = j
	other.Workload = "cg"
	if k, _ := Key(other); k == k1 {
		t.Error("workload change did not change the key")
	}
	other = j
	other.Config = other.Config.WithCores(2)
	if k, _ := Key(other); k == k1 {
		t.Error("config change did not change the key")
	}
}

// TestStreamJobKeyResolvesSpellings: StreamJob keys the trace the
// generator replays, so spellings of one trace share a key — Threads 0
// and 4 on a multi-threaded profile, any Threads on a single-threaded
// one — and options that change the trace change it.
func TestStreamJobKeyResolvesSpellings(t *testing.T) {
	key := func(name string, accesses, threads int, seed int64) string {
		opts := workload.Options{Accesses: accesses, Threads: threads, Seed: seed}
		return mustKey(t, testJob(t, name, opts))
	}
	cases := []struct {
		what string
		a, b string
		same bool
	}{
		{"ft, Threads 0 vs 4", key("ft", 20000, 0, 7), key("ft", 20000, 4, 7), true},
		{"bzip2, Threads 0 vs 1", key("bzip2", 20000, 0, 7), key("bzip2", 20000, 1, 7), true},
		{"bzip2, Threads 0 vs 8", key("bzip2", 20000, 0, 7), key("bzip2", 20000, 8, 7), true},
		{"ft, Threads 4 vs 8", key("ft", 20000, 4, 7), key("ft", 20000, 8, 7), false},
		{"ft, Accesses", key("ft", 20000, 4, 7), key("ft", 40000, 4, 7), false},
		{"ft, Seed", key("ft", 20000, 4, 7), key("ft", 20000, 4, 8), false},
		{"bzip2, Accesses", key("bzip2", 20000, 8, 7), key("bzip2", 40000, 8, 7), false},
		{"bzip2, Seed", key("bzip2", 20000, 8, 7), key("bzip2", 20000, 8, 8), false},
	}
	for _, c := range cases {
		if (c.a == c.b) != c.same {
			t.Errorf("%s: keys equal = %v, want %v", c.what, c.a == c.b, c.same)
		}
	}
}

func TestKeyHashesHybridByValue(t *testing.T) {
	j := testJob(t, "bzip2", smallOpts())
	model := reference.FixedCapacityModels()[1]
	a, b := j, j
	a.Config.Hybrid = &system.HybridConfig{SRAM: reference.SRAMBaseline(), NVM: model, SRAMWays: 4}
	b.Config.Hybrid = &system.HybridConfig{SRAM: reference.SRAMBaseline(), NVM: model, SRAMWays: 4}
	ka, _ := Key(a)
	kb, _ := Key(b)
	if ka != kb {
		t.Error("equal hybrid configs at distinct addresses hash differently")
	}
	b.Config.Hybrid.SRAMWays = 2
	if kb2, _ := Key(b); kb2 == ka {
		t.Error("hybrid way change did not change the key")
	}
	if ka == mustKey(t, j) {
		t.Error("hybrid and non-hybrid configs share a key")
	}
}

func mustKey(t *testing.T, j Job) string {
	t.Helper()
	k, ok := Key(j)
	if !ok {
		t.Fatal("job not cacheable")
	}
	return k
}

func TestUncacheableJobs(t *testing.T) {
	j := testJob(t, "bzip2", smallOpts())
	j.NoCache = true
	if _, ok := Key(j); ok {
		t.Error("NoCache job reported cacheable")
	}
	j = testJob(t, "bzip2", smallOpts())
	j.Config.Memory = fakeMemory{}
	if _, ok := Key(j); ok {
		t.Error("job with external main memory reported cacheable")
	}
}

// fakeMemory is a stub MainMemory: external memory models carry state, so
// jobs using them must bypass the cache.
type fakeMemory struct{}

func (fakeMemory) Read(nowNS float64, lineAddr uint64) float64  { return nowNS + 10 }
func (fakeMemory) Write(nowNS float64, lineAddr uint64) float64 { return nowNS + 10 }

func TestStatsString(t *testing.T) {
	s := Stats{Simulated: 3, Cached: 2, Failed: 1, Accesses: 2_500_000, SimWallNS: int64(1500 * time.Millisecond)}
	str := s.String()
	for _, want := range []string{"3 simulated", "2 cached", "1 failed", "2.50M accesses", "1.5s"} {
		if !contains(str, want) {
			t.Errorf("Stats.String() = %q missing %q", str, want)
		}
	}
	if s.Jobs() != 6 {
		t.Errorf("Jobs() = %d, want 6", s.Jobs())
	}
}

func TestProgressEvents(t *testing.T) {
	var cachedSeen, simSeen atomic.Int64
	e := New(WithProgress(func(ev Event) {
		if ev.Err != nil {
			t.Errorf("unexpected event error: %v", ev.Err)
		}
		if ev.Cached {
			cachedSeen.Add(1)
		} else {
			simSeen.Add(1)
		}
		if ev.Workload != "bzip2" || ev.LLC != "SRAM" {
			t.Errorf("event identifies %s/%s, want bzip2/SRAM", ev.Workload, ev.LLC)
		}
	}))
	j := testJob(t, "bzip2", smallOpts())
	for i := 0; i < 2; i++ {
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if simSeen.Load() != 1 || cachedSeen.Load() != 1 {
		t.Errorf("events: %d simulated / %d cached, want 1/1", simSeen.Load(), cachedSeen.Load())
	}
}
