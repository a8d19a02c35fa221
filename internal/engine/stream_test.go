package engine

// Engine-level acceptance tests for the streaming trace pipeline: a job
// streamed from its generator must produce byte-identical results to the
// same trace materialized first and replayed through trace.TraceSource,
// share its cache key (so the two forms deduplicate against each other),
// and every result the engine serves must match its committed digest.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"nvmllc/internal/golden"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// replayTwin returns j with a Source that replays the materialized trace
// of j's workload and options instead of running the generator.
func replayTwin(t *testing.T, j Job) Job {
	t.Helper()
	p, err := workload.ByName(j.Workload)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(p, j.TraceOpts)
	if err != nil {
		t.Fatal(err)
	}
	j.Source = func() (trace.ChunkSource, error) { return trace.NewTraceSource(tr) }
	return j
}

// TestEngineStreamEquivalence: for every design point in the grid, the
// generator-backed and replayed forms must agree byte-for-byte.
func TestEngineStreamEquivalence(t *testing.T) {
	e := New(WithoutCache())
	for _, sj := range mtJobs(t) {
		whole, err := e.Run(context.Background(), replayTwin(t, sj))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := e.Run(context.Background(), sj)
		if err != nil {
			t.Fatal(err)
		}
		if wb, sb := marshal(t, whole), marshal(t, streamed); !bytes.Equal(wb, sb) {
			t.Errorf("%s/%d threads: streamed result diverged\nstream: %s\nwhole:  %s", sj.Workload, sj.TraceOpts.Threads, sb, wb)
		}
	}
}

// TestEngineStreamCacheDedup: a generator-backed job and its replayed
// twin must share one cache entry — the second form is answered from the
// cache without calling its source factory or simulating again.
func TestEngineStreamCacheDedup(t *testing.T) {
	e := New()
	sj := mtJobs(t)[0]
	j := replayTwin(t, sj)
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
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
// must come from the stream's Meta.
func TestEngineStreamAccessesCounter(t *testing.T) {
	e := New(WithoutCache())
	sj := mtJobs(t)[0]
	want := jobAccesses(t, sj)
	if _, err := e.Run(context.Background(), sj); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Accesses; got != want {
		t.Errorf("Accesses = %d, want %d", got, want)
	}
}

// TestEngineJobWithoutTraceOrSource: a job carrying no trace source must
// fail cleanly, not panic.
func TestEngineJobWithoutTraceOrSource(t *testing.T) {
	e := New()
	j := mtJobs(t)[0]
	j.Source = nil
	j.NoCache = true
	if _, err := e.Run(context.Background(), j); err == nil {
		t.Fatal("job without a source must error")
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
