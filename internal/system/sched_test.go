package system

import (
	"testing"

	"nvmllc/internal/cpu"
)

// schedCores builds n cores with deterministic pseudo-random stream
// lengths for scheduler-order tests.
func schedCores(t *testing.T, n int) []*coreState {
	t.Helper()
	cores := make([]*coreState, n)
	for i := 0; i < n; i++ {
		core, err := cpu.NewCore(cpu.Gainestown())
		if err != nil {
			t.Fatal(err)
		}
		// Lengths vary per core, some zero (cores with no work).
		length := (i * 13) % 37
		cores[i] = &coreState{idx: i, core: core, line: make([]uint64, length), streamLeft: int64(length)}
	}
	return cores
}

// advance moves a core's clock deterministically as a function of its
// index and position; amount 0 exercises the tie-break paths.
func advance(cs *coreState) {
	cs.pos++
	cs.core.Retire(uint64((cs.idx*7 + cs.pos*13) % 5))
}

// TestCoreHeapMatchesLinearScan drives the heap and the historical
// linear scan over identical synthetic core populations and asserts the
// selection sequences are step-for-step identical, including ties
// (equal clocks must resolve to the lowest core index).
func TestCoreHeapMatchesLinearScan(t *testing.T) {
	heapOrder := func() []int {
		cores := schedCores(t, 19)
		h := newCoreHeap(cores)
		var order []int
		for h.len() > 0 {
			cs := h.min()
			order = append(order, cs.idx)
			advance(cs)
			if cs.pos >= len(cs.line) {
				h.popMin()
			} else {
				h.fixMin(cs.core.TimeNS())
			}
		}
		return order
	}()
	scanOrder := func() []int {
		cores := schedCores(t, 19)
		var order []int
		for {
			var next *coreState
			for _, cs := range cores {
				if cs.pos >= len(cs.line) {
					continue
				}
				if next == nil || cs.core.TimeNS() < next.core.TimeNS() {
					next = cs
				}
			}
			if next == nil {
				break
			}
			order = append(order, next.idx)
			advance(next)
		}
		return order
	}()
	if len(heapOrder) != len(scanOrder) {
		t.Fatalf("heap scheduled %d steps, scan %d", len(heapOrder), len(scanOrder))
	}
	for i := range heapOrder {
		if heapOrder[i] != scanOrder[i] {
			t.Fatalf("step %d: heap chose core %d, scan core %d", i, heapOrder[i], scanOrder[i])
		}
	}
}
