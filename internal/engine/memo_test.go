package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMemoKeepsValuesNotFailures: a settled value answers later calls
// as hits; a failure is handed back once and the next call computes
// afresh.
func TestMemoKeepsValuesNotFailures(t *testing.T) {
	var m memo[string, int]
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := m.do(ctx, "k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want the computation's", err)
	}
	v, hit, err := m.do(ctx, "k", func() (int, error) { return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("after a failure: %d, hit %v, err %v; want a fresh 7", v, hit, err)
	}
	v, hit, err = m.do(ctx, "k", func() (int, error) { t.Fatal("recomputed a settled value"); return 0, nil })
	if v != 7 || !hit || err != nil {
		t.Fatalf("settled: %d, hit %v, err %v; want a 7 hit", v, hit, err)
	}
}

// TestMemoWaiterCancellation: a call waiting on another's computation
// returns its own context's error when cancelled, and the computation
// still settles for later calls.
func TestMemoWaiterCancellation(t *testing.T) {
	var m memo[int, string]
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.do(context.Background(), 1, func() (string, error) {
			close(started)
			<-release
			return "v", nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.do(ctx, 1, func() (string, error) { return "dup", nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err %v, want context.Canceled", err)
	}
	close(release)
	<-done
	if v, hit, _ := m.do(context.Background(), 1, func() (string, error) { return "dup", nil }); v != "v" || !hit {
		t.Errorf("after the computation settled: %q, hit %v; want the first value as a hit", v, hit)
	}
}

// awaitMemoWaiter blocks until some goroutine is parked in memo.do's
// wait for another call's computation, so a test can settle that
// computation knowing the waiter already holds its slot.
func awaitMemoWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, ".(*memo[") && strings.Contains(g, "]).do(") {
				return
			}
		}
	}
	n := runtime.Stack(buf, true)
	t.Fatalf("no call joined the computation within 10s\n%s", buf[:n])
}

// TestMemoWaiterSurvivesComputerCancellation: a computation that fails
// on its own caller's cancellation does not fail a waiter whose context
// is live. The waiter claims the key again, computes it, and keeps the
// value for later calls.
func TestMemoWaiterSurvivesComputerCancellation(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		var m memo[int, string]
		started, release := make(chan struct{}), make(chan struct{})
		firstErr := make(chan error, 1)
		go func() {
			_, _, err := m.do(context.Background(), 1, func() (string, error) {
				close(started)
				<-release
				return "", cause // the computing caller's context ended
			})
			firstErr <- err
		}()
		<-started
		type outcome struct {
			val string
			hit bool
			err error
		}
		second := make(chan outcome, 1)
		go func() {
			v, hit, err := m.do(context.Background(), 1, func() (string, error) { return "v", nil })
			second <- outcome{v, hit, err}
		}()
		awaitMemoWaiter(t)
		close(release)
		if err := <-firstErr; err != cause {
			t.Fatalf("computing caller: err %v, want its own %v", err, cause)
		}
		if got := <-second; got.val != "v" || got.hit || got.err != nil {
			t.Fatalf("after the computer's %v, live waiter got %q, hit %v, err %v; want its own fresh \"v\"", cause, got.val, got.hit, got.err)
		}
		if v, hit, err := m.do(context.Background(), 1, func() (string, error) { return "dup", nil }); v != "v" || !hit || err != nil {
			t.Errorf("later call: %q, hit %v, err %v; want the waiter's value as a hit", v, hit, err)
		}
	}
}
