package engine

import (
	"context"
	"errors"
	"testing"
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
