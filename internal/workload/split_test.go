package workload

import (
	"fmt"
	"testing"

	"nvmllc/internal/trace"
)

// splitByThread partitions accesses by thread ID, preserving order
// within each thread, so the tests can inspect each thread's stream. An
// access whose Tid is out of range is an error rather than a silently
// dropped access.
func splitByThread(accesses []trace.Access, threads int) ([][]trace.Access, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("split into %d threads, want positive", threads)
	}
	counts := make([]int, threads)
	for i := range accesses {
		tid := int(accesses[i].Tid)
		if tid >= threads {
			return nil, fmt.Errorf("access %d has tid %d ≥ threads %d", i, tid, threads)
		}
		counts[tid]++
	}
	out := make([][]trace.Access, threads)
	for t, n := range counts {
		out[t] = make([]trace.Access, 0, n)
	}
	for _, a := range accesses {
		out[a.Tid] = append(out[a.Tid], a)
	}
	return out, nil
}

func TestSplitByThread(t *testing.T) {
	accs := []trace.Access{
		{Addr: 0x1000, Kind: trace.Read, Tid: 0},
		{Addr: 0x1040, Kind: trace.Write, Tid: 1},
		{Addr: 0x0fff, Kind: trace.Ifetch, Tid: 0},
		{Addr: 0xdeadbeef, Kind: trace.Read, Tid: 1},
	}
	parts, err := splitByThread(accs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("splitByThread returned %d parts", len(parts))
	}
	if len(parts[0]) != 2 || len(parts[1]) != 2 {
		t.Errorf("part sizes = %d,%d; want 2,2", len(parts[0]), len(parts[1]))
	}
	// Order within each thread preserved.
	if parts[0][0].Addr != 0x1000 || parts[0][1].Addr != 0x0fff {
		t.Error("thread 0 order not preserved")
	}
}

// TestSplitByThreadRejectsOutOfRangeTid: a tid ≥ threads must be an
// error, not a silently dropped access.
func TestSplitByThreadRejectsOutOfRangeTid(t *testing.T) {
	accs := []trace.Access{{Addr: 0x40, Tid: 0}, {Addr: 0x80, Tid: 3}}
	if _, err := splitByThread(accs, 2); err == nil {
		t.Fatal("splitByThread accepted tid 3 with 2 threads")
	}
	if _, err := splitByThread(accs, 0); err == nil {
		t.Fatal("splitByThread accepted 0 threads")
	}
}
