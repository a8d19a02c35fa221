package engine

// Engine-level acceptance tests for the streaming trace pipeline: a
// streamed job must produce byte-identical results to its materialized
// twin, share its cache key (so the two forms deduplicate against each
// other), and every result the engine serves must match its committed
// digest.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"nvmllc/internal/golden"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// streamTwin converts a materialized job into its streaming form.
func streamTwin(t *testing.T, j Job) Job {
	t.Helper()
	p, err := workload.ByName(j.Workload)
	if err != nil {
		t.Fatal(err)
	}
	return StreamJob(p, j.TraceOpts, j.Config)
}

// TestEngineStreamEquivalence: for every design point in the grid, the
// streamed and materialized forms must agree byte-for-byte and hash to
// the same cache key.
func TestEngineStreamEquivalence(t *testing.T) {
	e := New(WithoutCache())
	for _, j := range mtJobs(t) {
		sj := streamTwin(t, j)
		k1, c1 := Key(j)
		k2, c2 := Key(sj)
		if !c1 || !c2 || k1 != k2 {
			t.Fatalf("%s: cache keys differ across forms: %q (cacheable=%v) vs %q (cacheable=%v)", j.Workload, k1, c1, k2, c2)
		}
		whole, err := e.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := e.Run(context.Background(), sj)
		if err != nil {
			t.Fatal(err)
		}
		if wb, sb := marshal(t, whole), marshal(t, streamed); !bytes.Equal(wb, sb) {
			t.Errorf("%s/%d threads: streamed result diverged\nstream: %s\nwhole:  %s", j.Workload, j.TraceOpts.Threads, sb, wb)
		}
	}
}

// TestEngineStreamCacheDedup: a streamed job and its materialized twin
// must share one cache entry — the second form is answered from the
// cache without calling the source factory or simulating again.
func TestEngineStreamCacheDedup(t *testing.T) {
	e := New()
	jobs := mtJobs(t)
	j := jobs[0]
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	sj := streamTwin(t, j)
	factoryCalls := 0
	inner := sj.Source
	sj.Source = func() (trace.ChunkSource, error) {
		factoryCalls++
		return inner()
	}
	res, err := e.Run(context.Background(), sj)
	if err != nil {
		t.Fatal(err)
	}
	if factoryCalls != 0 {
		t.Errorf("cached streamed job called its source factory %d times", factoryCalls)
	}
	st := e.Stats()
	if st.Simulated != 1 || st.Cached != 1 {
		t.Errorf("stats = %+v, want 1 simulated + 1 cached", st)
	}
	whole, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, res), marshal(t, whole)) {
		t.Error("cached answers diverge between forms")
	}
}

// TestEngineStreamAccessesCounter: the engine's simulated-access counter
// must come from the stream's Meta for streamed jobs.
func TestEngineStreamAccessesCounter(t *testing.T) {
	e := New(WithoutCache())
	sj := streamTwin(t, mtJobs(t)[0])
	src, err := sj.Source()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(src.Meta().Accesses)
	if _, err := e.Run(context.Background(), sj); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Accesses; got != want {
		t.Errorf("Accesses = %d, want %d", got, want)
	}
}

// TestEngineJobWithoutTraceOrSource: a job carrying neither form must
// fail cleanly, not panic.
func TestEngineJobWithoutTraceOrSource(t *testing.T) {
	e := New()
	j := mtJobs(t)[0]
	j.Trace = nil
	j.NoCache = true
	if _, err := e.Run(context.Background(), j); err == nil {
		t.Fatal("job with neither trace nor source must error")
	}
	if e.Stats().Failed != 1 {
		t.Errorf("Failed = %d, want 1", e.Stats().Failed)
	}
}

// engineGoldenFile holds the digests of the results the engine serves
// for mtJobs.
const engineGoldenFile = "engine.sha256"

// mtJobKey names an mtJobs design point in engineGoldenFile.
func mtJobKey(j Job) string {
	return fmt.Sprintf("%s/%dt", j.Workload, j.TraceOpts.Threads)
}

// TestEngineLayoutEquivalence: results served through the engine must
// match testdata/golden/engine.sha256, the digests committed while the
// same design points were also replayed through the AoS reference tag
// store and agreed byte for byte — the engine-level leg of the SoA
// equivalence discipline.
func TestEngineLayoutEquivalence(t *testing.T) {
	e := New()
	got := make(map[string]string)
	for _, j := range mtJobs(t) {
		res, err := e.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		got[mtJobKey(j)] = golden.Digest(marshal(t, res))
	}
	golden.Check(t, engineGoldenFile, got)
}
