package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nvmllc/internal/system"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// TestRunAllCancellationMidSubmission pins RunAll's abort contract:
// cancelling while units are still unstarted preserves the results
// already computed, fails every unstarted unit with the context error,
// collapses the flood of per-job context errors into a single joined
// entry, and leaks no goroutines — the engine keeps working afterwards.
func TestRunAllCancellationMidSubmission(t *testing.T) {
	before := runtime.NumGoroutine()

	// Parallelism 1 runs the units one after another on one worker, so
	// cancelling from the first job's completion event is guaranteed to
	// land while later units are still unstarted.
	e := New(WithParallelism(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan struct{})
	e.progress = func(Event) {
		select {
		case <-cancelled:
		default:
			close(cancelled)
			cancel()
		}
	}

	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = testJob(t, "bzip2", workload.Options{Accesses: 20000, Seed: int64(i + 1)})
	}
	results, err := e.RunAll(ctx, jobs)

	// The completed head of the batch survives the abort.
	if len(results) != len(jobs) {
		t.Fatalf("results slice has %d entries, want %d", len(results), len(jobs))
	}
	if results[0] == nil {
		t.Error("cancellation discarded the already-computed first result")
	}
	var kept int
	for _, r := range results {
		if r != nil {
			kept++
		}
	}
	if kept != 1 {
		t.Fatalf("%d of %d jobs completed, want only the first: no unit may start after the cancellation", kept, len(jobs))
	}

	// One joined context entry, not one per refused job.
	if err == nil {
		t.Fatal("cancelled RunAll returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
	if got := strings.Count(err.Error(), context.Canceled.Error()); got != 1 {
		t.Errorf("error mentions the cancellation %d times, want it collapsed to 1:\n%v", got, err)
	}

	// The same engine, under a fresh context, still runs a full batch at
	// its bounded parallelism.
	fresh, err := e.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatalf("engine broken after a cancelled batch: %v", err)
	}
	for i, r := range fresh {
		if r == nil {
			t.Fatalf("post-cancel batch lost result %d", i)
		}
	}

	// No goroutine leak: the count settles back to the baseline (with a
	// little slack for runtime background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+3 {
		t.Errorf("goroutines grew from %d to %d after RunAll cancellation", before, after)
	}
}

// TestRunWaiterSurvivesOtherCallersCancellation: a Run with a live
// context that joins another Run's in-flight simulation of the same
// design point gets the result, even when the simulating Run's context
// is cancelled mid-flight. The first Run's trace source blocks until
// the second has joined, then the first context is cancelled, so the
// simulation it started fails on that cancellation.
func TestRunWaiterSurvivesOtherCallersCancellation(t *testing.T) {
	e := New(WithParallelism(2))
	j := testJob(t, "bzip2", smallOpts())
	gen := j.Source
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	j.Source = func() (trace.ChunkSource, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return gen()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstErr := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, j)
		firstErr <- err
	}()
	<-started
	type outcome struct {
		res *system.Result
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := e.Run(context.Background(), j)
		second <- outcome{res, err}
	}()
	awaitMemoWaiter(t)
	cancel()
	close(release)
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run: err %v, want context.Canceled", err)
	}
	got := <-second
	if got.err != nil || got.res == nil {
		t.Fatalf("live Run that joined the cancelled simulation: result %v, err %v; want a result", got.res != nil, got.err)
	}
	want, err := New().Run(context.Background(), testJob(t, "bzip2", smallOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if got.res.TimeNS != want.TimeNS || got.res.LLC != want.LLC {
		t.Errorf("joined Run's result differs from a fresh engine's: %g ns vs %g ns", got.res.TimeNS, want.TimeNS)
	}
	if st := e.Stats(); st.Simulated != 1 || st.Failed != 1 {
		t.Errorf("stats %+v: want the cancelled pass failed and the waiter's own simulated", st)
	}
}
