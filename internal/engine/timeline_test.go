package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// timelineJob is testJob with wear tracking and epoch sampling on.
func timelineJob(t *testing.T, name string, opts workload.Options) Job {
	t.Helper()
	j := testJob(t, name, opts)
	j.Config.TrackWear = true
	j.Config.Timeline = &system.TimelineConfig{Points: 16}
	return j
}

// TestKeyTimelineRules pins the cache identity of sampled jobs: a
// timeline job keys apart from the same job without one, two point
// budgets key apart, the default budget keys alike however it is
// spelled, and a Telemetry registry never changes the key.
func TestKeyTimelineRules(t *testing.T) {
	plain := testJob(t, "bzip2", smallOpts())
	with := func(tc *system.TimelineConfig) string {
		j := plain
		j.Config.Timeline = tc
		return mustKey(t, j)
	}
	kp := mustKey(t, plain)
	k8 := with(&system.TimelineConfig{Points: 8})
	k64 := with(&system.TimelineConfig{Points: 64})
	if kp == k8 || kp == k64 {
		t.Error("a timeline job keys like the same job without one")
	}
	if k8 == k64 {
		t.Error("point budgets 8 and 64 share a key")
	}
	if with(&system.TimelineConfig{}) != with(&system.TimelineConfig{Points: system.DefaultTimelinePoints}) {
		t.Error("{} and {Points: DefaultTimelinePoints} key apart; both resolve to the default budget")
	}
	observed := plain
	observed.Config.Telemetry = telemetry.New()
	if mustKey(t, observed) != kp {
		t.Error("a telemetry registry changed the key")
	}
}

// TestTimelinePointBudgetsKeyApart: a job asking for 8 timeline points
// after the same job ran with 64 gets its own 8-point timeline, whether
// the 64-point result sits in the engine's memory or in a DiskCache, and
// a timeline-less job is never answered by either.
func TestTimelinePointBudgetsKeyApart(t *testing.T) {
	plain := testJob(t, "bzip2", smallOpts())
	sampled := func(points int) Job {
		j := plain
		j.Config.Timeline = &system.TimelineConfig{Points: points}
		return j
	}
	check := func(t *testing.T, e *Engine, j Job, maxPoints int) {
		t.Helper()
		r, err := e.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case maxPoints == 0 && r.Timeline != nil:
			t.Errorf("timeline-less job got a %d-epoch timeline", r.Timeline.Len())
		case maxPoints > 0 && r.Timeline == nil:
			t.Errorf("%d-point job got no timeline", maxPoints)
		case maxPoints > 0 && (r.Timeline.Len() > maxPoints || r.Timeline.Len() <= maxPoints/8):
			t.Errorf("%d-point job got %d epochs", maxPoints, r.Timeline.Len())
		}
	}

	t.Run("memory", func(t *testing.T) {
		e := New()
		check(t, e, sampled(64), 64)
		check(t, e, sampled(8), 8)
		check(t, e, plain, 0)
		check(t, e, sampled(64), 64)
		if s := e.Stats(); s.Simulated != 3 || s.Cached != 1 || s.Jobs() != 4 {
			t.Errorf("stats = %+v, want 3 simulated and 1 cached", s)
		}
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		open := func() *Engine {
			store, err := OpenDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			return New(WithStore(store))
		}
		check(t, open(), sampled(64), 64)
		e := open()
		check(t, e, sampled(8), 8)
		check(t, e, plain, 0)
		if s := e.Stats(); s.Simulated != 2 || s.Cached != 0 {
			t.Errorf("after a restart: stats = %+v, want 2 simulated, none from the 64-point entry", s)
		}
		e = open()
		check(t, e, sampled(64), 64)
		check(t, e, sampled(8), 8)
		if s := e.Stats(); s.Simulated != 0 || s.Cached != 2 {
			t.Errorf("second restart: stats = %+v, want both budgets from disk", s)
		}
	})
}

// TestTimelineDeterministicAcrossEngineParallelism requires byte-identical
// timelines and heatmaps whether the sampled grid runs serialized or at
// full parallelism through the scratch pool.
func TestTimelineDeterministicAcrossEngineParallelism(t *testing.T) {
	mkJobs := func() []Job {
		var jobs []Job
		for _, wl := range []string{"is", "ft"} {
			for _, threads := range []int{1, 4} {
				j := timelineJob(t, wl, workload.Options{Accesses: 15000, Threads: threads, Seed: 3})
				jobs = append(jobs, j)
			}
		}
		// Duplicates exercise concurrent same-key dedup on sampled jobs.
		return append(jobs, jobs...)
	}

	serialRes, err := New(WithParallelism(1)).RunAll(context.Background(), mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	parallelRes, err := New().RunAll(context.Background(), mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialRes {
		if serialRes[i].Timeline == nil || parallelRes[i].Timeline == nil {
			t.Fatalf("job %d: missing timeline", i)
		}
		sb, err := json.Marshal(struct {
			T any
			H any
		}{serialRes[i].Timeline, serialRes[i].WearHeatmap})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := json.Marshal(struct {
			T any
			H any
		}{parallelRes[i].Timeline, parallelRes[i].WearHeatmap})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, pb) {
			t.Errorf("job %d: timeline differs across engine parallelism", i)
		}
	}
}
