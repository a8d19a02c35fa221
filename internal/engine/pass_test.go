package engine

// Tests that RunAll answers the design points of a single-threaded
// technology sweep from one simulation pass, with every job still
// claiming, counting, caching and reporting as its own design point.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// technologyJobs is bzip2 (single-threaded) on every fixed-capacity LLC, then
// one multi-threaded job, then the first job again.
func technologyJobs(t *testing.T) []Job {
	t.Helper()
	bzip2, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, m := range reference.FixedCapacityModels() {
		jobs = append(jobs, StreamJob(bzip2, smallOpts(), system.Gainestown(m)))
	}
	return append(jobs, testJob(t, "ft", smallOpts()), jobs[0])
}

func resultJSON(t *testing.T, r *system.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunAllSharesPasses: the sweep's eleven bzip2 points run as one
// pass, the ft point as another, and the repeated point is a cache hit.
// Every point counts and reports as its own design point, carries its
// pass's wall time, and equals the result a solo run computes.
func TestRunAllSharesPasses(t *testing.T) {
	jobs := technologyJobs(t)
	models := len(reference.FixedCapacityModels())
	reg := telemetry.New()
	var mu sync.Mutex
	events := map[string][]Event{}
	e := New(WithParallelism(2), WithTelemetry(reg), WithProgress(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events[ev.Workload] = append(events[ev.Workload], ev)
	}))
	got, err := e.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Simulated != uint64(models+1) || st.Cached != 1 || st.Passes != 2 {
		t.Errorf("Simulated/Cached/Passes = %d/%d/%d, want %d/1/2", st.Simulated, st.Cached, st.Passes, models+1)
	}
	if st.TraceGens != 2 || st.TraceShared != uint64(models-1) {
		t.Errorf("TraceGens/TraceShared = %d/%d, want 2/%d", st.TraceGens, st.TraceShared, models-1)
	}
	if want := uint64(models)*jobAccesses(t, jobs[0]) + jobAccesses(t, jobs[models]); st.Accesses != want {
		t.Errorf("Accesses = %d, want %d (each job counts its trace)", st.Accesses, want)
	}
	if v := reg.Counter("engine_passes_total").Value(); v != st.Passes {
		t.Errorf("engine_passes_total = %d, want Stats.Passes %d", v, st.Passes)
	}
	if v := reg.Counter("engine_jobs_total", "outcome", "simulated").Value(); v != st.Simulated {
		t.Errorf("engine_jobs_total{simulated} = %d, want %d", v, st.Simulated)
	}
	keys := map[string]bool{}
	var wall int64
	for _, ev := range events["bzip2"] {
		if ev.Cached {
			continue
		}
		keys[ev.Key] = true
		if wall == 0 {
			wall = ev.WallNS
		}
		if ev.WallNS != wall || wall <= 0 {
			t.Errorf("%s: WallNS %d, want the pass's %d", ev.LLC, ev.WallNS, wall)
		}
	}
	if len(keys) != models {
		t.Errorf("%d distinct bzip2 design points reported, want %d", len(keys), models)
	}
	solo := New(WithoutCache())
	for i, j := range jobs {
		want, err := solo.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultJSON(t, got[i]), resultJSON(t, want)) {
			t.Errorf("job %d (%s on %s): pass result differs from a solo run", i, j.Workload, j.LLCName())
		}
	}
	if solo.Stats().Passes != solo.Stats().Simulated {
		t.Errorf("an uncached engine ran %d passes for %d simulations, want one each", solo.Stats().Passes, solo.Stats().Simulated)
	}
}

// TestRunAllPassSkipsAnswered: members already in the result cache or
// the persistent store are answered from there, and only the rest share
// the pass.
func TestRunAllPassSkipsAnswered(t *testing.T) {
	jobs := technologyJobs(t)[:4]
	ctx := context.Background()
	store, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := New(WithStore(store))
	if _, err := first.Run(ctx, jobs[1]); err != nil {
		t.Fatal(err)
	}
	e := New(WithStore(store))
	if _, err := e.Run(ctx, jobs[2]); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if _, err := e.RunAll(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if sim, cached, passes := st.Simulated-before.Simulated, st.Cached-before.Cached, st.Passes-before.Passes; sim != 2 || cached != 2 || passes != 1 {
		t.Errorf("simulated/cached/passes = %d/%d/%d, want 2/2/1 (one from the store, one from memory)", sim, cached, passes)
	}
}

// TestRunKeepsPassesOfOne: Engine.Run, the serving path, never groups.
func TestRunKeepsPassesOfOne(t *testing.T) {
	e := New()
	for _, j := range technologyJobs(t)[:3] {
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Passes != 3 || st.Simulated != 3 {
		t.Errorf("Passes/Simulated = %d/%d, want 3/3", st.Passes, st.Simulated)
	}
}
