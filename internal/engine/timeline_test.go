package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
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

// TestKeyExcludesTimeline pins the cache-identity rule: sampling and
// telemetry are observation-only, so the same job keys alike with and
// without a Timeline or a Telemetry registry.
func TestKeyExcludesTimeline(t *testing.T) {
	plain := testJob(t, "bzip2", smallOpts())
	sampled := plain
	sampled.Config.Timeline = &system.TimelineConfig{Points: 64}
	observed := plain
	observed.Config.Telemetry = telemetry.New()
	kp, ok1 := Key(plain)
	ks, ok2 := Key(sampled)
	ko, ok3 := Key(observed)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("jobs unexpectedly uncacheable")
	}
	if kp != ks {
		t.Errorf("timeline config changed the cache key:\nplain:   %s\nsampled: %s", kp, ks)
	}
	if kp != ko {
		t.Errorf("telemetry registry changed the cache key:\nplain:    %s\nobserved: %s", kp, ko)
	}
}

// TestRunUpgradesCachedResultForTimeline exercises the cache-upgrade
// loop: a timeline-less cached entry is re-simulated when a later job
// asks for sampling, and the richer result replaces it. The upgrade
// must be accounted as Upgraded — not a second Simulated — so
// Stats.Jobs() stays equal to submissions.
func TestRunUpgradesCachedResultForTimeline(t *testing.T) {
	var events []Event
	var mu sync.Mutex
	e := New(WithProgress(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	plain := testJob(t, "bzip2", smallOpts())
	r1, err := e.Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Timeline != nil {
		t.Fatal("unsampled run produced a timeline")
	}

	sampled := plain
	sampled.Config.Timeline = &system.TimelineConfig{Points: 16}
	r2, err := e.Run(context.Background(), sampled)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Timeline == nil {
		t.Fatal("sampled job hit the timeline-less cache entry without upgrading")
	}
	if s := e.Stats(); s.Simulated != 1 || s.Upgraded != 1 || s.Cached != 0 {
		t.Errorf("stats = %+v, want 1 simulated + 1 upgraded (the upgrade must not double-count Simulated)", s)
	}
	if s := e.Stats(); s.Jobs() != 2 {
		t.Errorf("Jobs() = %d, want 2 (one per submission)", s.Jobs())
	}
	// Exactly one plain simulate event and one upgrade event for the key
	// — not two simulate events.
	var sims, upgrades int
	for _, ev := range events {
		switch {
		case ev.Upgraded:
			upgrades++
		case !ev.Cached:
			sims++
		}
	}
	if sims != 1 || upgrades != 1 {
		t.Errorf("events: %d simulate + %d upgrade, want 1 + 1", sims, upgrades)
	}

	// The upgraded entry now serves both shapes from cache.
	r3, err := e.Run(context.Background(), sampled)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r2 {
		t.Error("second sampled run missed the upgraded cache entry")
	}
	r4, err := e.Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if r4 != r2 {
		t.Error("plain run after the upgrade should share the enriched entry")
	}
	if s := e.Stats(); s.Cached != 2 {
		t.Errorf("stats = %+v, want 2 cached after the upgrade", e.Stats())
	}
}

// TestWithTimelineAppliesToAllJobs checks the engine-level default: an
// engine built WithTimeline samples every job, without mutating caller
// configs, and per-job configs still win.
func TestWithTimelineAppliesToAllJobs(t *testing.T) {
	e := New(WithTimeline(system.TimelineConfig{Points: 8}))
	j := testJob(t, "bzip2", smallOpts())
	r, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline == nil {
		t.Fatal("WithTimeline engine returned no timeline")
	}
	if n := r.Timeline.Len(); n == 0 || n > 8 {
		t.Errorf("engine default produced %d points, want 1..8", n)
	}
	if j.Config.Timeline != nil {
		t.Error("engine mutated the caller's job config")
	}

	// A job-level config overrides the engine default.
	j2 := timelineJob(t, "bzip2", workload.Options{Accesses: 20000, Seed: 9})
	r2, err := e.Run(context.Background(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if n := r2.Timeline.Len(); n == 0 || n > 16 {
		t.Errorf("job-level config produced %d points, want 1..16 (job wins over engine default)", n)
	}
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
