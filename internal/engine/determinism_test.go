package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"nvmllc/internal/golden"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// mtJobs builds a small multi-threaded design-point grid (two workloads
// at two core counts) whose jobs exercise the scheduler and coherence
// paths the single-threaded engine tests miss.
func mtJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range []string{"ft", "is"} {
		for _, threads := range []int{2, 8} {
			p, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := workload.Options{Accesses: 20000, Threads: threads, Seed: 11}
			jobs = append(jobs, StreamJob(p, opts, system.Gainestown(reference.SRAMBaseline()).WithCores(threads)))
		}
	}
	return jobs
}

// marshal renders a Result for byte-level comparison.
func marshal(t *testing.T, r *system.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEngineSchedulerEquivalence is the engine-level acceptance test for
// the heap-scheduler swap: every Result the engine produces (through its
// heap-scheduled, scratch-pooled streaming path) must match the digest
// committed while the historical linear-scan scheduler still ran
// alongside, and the cache key must not change — cached results from
// before the swap stay valid.
func TestEngineSchedulerEquivalence(t *testing.T) {
	digests := golden.Load(t, engineGoldenFile)
	e := New()
	for _, j := range mtJobs(t) {
		key, cacheable := Key(j)
		if !cacheable {
			t.Fatalf("%s/%d threads: job unexpectedly uncacheable", j.Workload, j.TraceOpts.Threads)
		}
		got, err := e.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		want := digests[mtJobKey(j)]
		if d := golden.Digest(marshal(t, got)); d != want {
			t.Errorf("%s/%d threads: engine result digest %s, committed %q", j.Workload, j.TraceOpts.Threads, d, want)
		}
		if key2, _ := Key(j); key2 != key {
			t.Errorf("%s/%d threads: cache key not deterministic: %s vs %s",
				j.Workload, j.TraceOpts.Threads, key, key2)
		}
		// Generator leg: the same design point streamed from its generator
		// through a fresh engine (trace sharing included) must reproduce
		// the committed result too, under the same cache key — the input
		// form must never move a job to a different entry.
		p, err := workload.ByName(j.Workload)
		if err != nil {
			t.Fatal(err)
		}
		sj := StreamJob(p, j.TraceOpts, j.Config)
		if skey, ok := Key(sj); !ok || skey != key {
			t.Errorf("%s/%d threads: streamed form keys to %q, materialized to %q",
				j.Workload, j.TraceOpts.Threads, skey, key)
		}
		sres, err := New().Run(context.Background(), sj)
		if err != nil {
			t.Fatal(err)
		}
		if d := golden.Digest(marshal(t, sres)); d != want {
			t.Errorf("%s/%d threads: streamed engine result digest %s, committed %q", j.Workload, j.TraceOpts.Threads, d, want)
		}
	}
}

// TestEngineDeterministicAcrossParallelism runs the same design-point
// grid twice through shared engines — once serialized, once at the
// engine's default GOMAXPROCS parallelism — and requires identical cache
// keys and byte-identical Result fields. Worker scheduling, the scratch
// pool and cache races must not leak into results.
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	jobs := mtJobs(t)
	// Duplicate the grid so the parallel engine also exercises its
	// concurrent same-key dedup path.
	jobs = append(jobs, jobs...)

	serial := New(WithParallelism(1))
	serialRes, err := serial.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel := New()
	parallelRes, err := parallel.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serialRes[i] == nil || parallelRes[i] == nil {
			t.Fatalf("job %d: nil result without error", i)
		}
		sb, pb := marshal(t, serialRes[i]), marshal(t, parallelRes[i])
		if !bytes.Equal(sb, pb) {
			t.Errorf("job %d (%s/%d threads): results differ across parallelism\nserial:   %s\nparallel: %s",
				i, jobs[i].Workload, jobs[i].TraceOpts.Threads, sb, pb)
		}
	}
	// Same grid, same keys: both engines must agree job-for-job.
	for i := range jobs {
		ks, _ := Key(jobs[i])
		kp, _ := Key(jobs[i])
		if ks == "" || ks != kp {
			t.Errorf("job %d: unstable cache key %q vs %q", i, ks, kp)
		}
	}
}
