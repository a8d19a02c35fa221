package system

// Core scheduling for the simulation hot loop. The simulator interleaves
// per-core access streams in core-local time order; with up to 64 cores a
// linear min-scan per access is O(cores) and dominates the Section V-C
// core sweeps. coreHeap is a binary min-heap over the active cores keyed
// on (core-local time, core index): selecting the next core is O(1) and
// reinserting the stepped core is O(log cores).
//
// Ties break on core index, ascending — exactly the order the historical
// linear scan produced (it kept the first strictly-smaller element, i.e.
// the lowest-indexed core among equals) — so results stay identical to
// the digests pinned before the scan was retired (testdata/golden).

// heapEnt is one heap slot: the core's clock and index, held by value so
// sift comparisons stay inside the contiguous (cache-resident) heap
// array instead of chasing coreState pointers.
type heapEnt struct {
	timeNS float64
	idx    int32
}

// entLess orders entries by local time, index-ascending on ties.
func entLess(a, b heapEnt) bool {
	return a.timeNS < b.timeNS || (a.timeNS == b.timeNS && a.idx < b.idx)
}

// coreHeap is a binary min-heap of the cores that still have accesses
// left, ordered by (core-local time, core index).
type coreHeap struct {
	ents  []heapEnt
	cores []*coreState // all cores, indexed by coreState.idx
}

// newCoreHeap heapifies the cores that will consume any accesses (their
// segment queues may still be empty — membership is the thread's total
// remaining count, not what has been generated so far).
func newCoreHeap(cores []*coreState) *coreHeap {
	h := &coreHeap{cores: cores, ents: make([]heapEnt, 0, len(cores))}
	for _, cs := range cores {
		if cs.streamLeft > 0 {
			h.ents = append(h.ents, heapEnt{timeNS: cs.core.TimeNS(), idx: int32(cs.idx)})
		}
	}
	for i := len(h.ents)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *coreHeap) len() int { return len(h.ents) }

// min returns the core with the earliest local clock without removing it.
func (h *coreHeap) min() *coreState { return h.cores[h.ents[0].idx] }

// fixMin restores heap order after the root core's clock advanced to t
// (stepping a core only ever moves its clock forward, so a sift-down
// suffices).
func (h *coreHeap) fixMin(t float64) {
	h.ents[0].timeNS = t
	h.siftDown(0)
}

// popMin removes the root (a core whose stream is exhausted).
func (h *coreHeap) popMin() {
	last := len(h.ents) - 1
	h.ents[0] = h.ents[last]
	h.ents = h.ents[:last]
	if last > 0 {
		h.siftDown(0)
	}
}

func (h *coreHeap) siftDown(i int) {
	e := h.ents[i]
	n := len(h.ents)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && entLess(h.ents[r], h.ents[l]) {
			least = r
		}
		if !entLess(h.ents[least], e) {
			break
		}
		h.ents[i] = h.ents[least]
		i = least
	}
	h.ents[i] = e
}
