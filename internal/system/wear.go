package system

import (
	"math"
	"sort"

	"nvmllc/internal/linetab"
)

// Write-endurance accounting. The paper's Table I lists write endurance as
// the key drawback of PCRAM (10⁷–10⁸ writes) and RRAM (10¹⁰), and its
// Section VII names lifetime characterization — how architecture-agnostic
// workload features affect the lifetime of different NVMs — as future
// work. This file implements the measurement side: per-line and per-set
// LLC write counts, from which internal/endurance derives lifetime
// estimates with and without ideal intra-set wear leveling (the
// WriteSmoothing-style technique the paper cites as [20]).

// WearTracker accumulates LLC data-array write counts: per line in a
// linetab.Table (Record runs on every LLC write), per set in a slice.
type WearTracker struct {
	lineWrites linetab.Table
	setWrites  []uint64
	setMask    uint64
	ways       int
	total      uint64
}

// newWearTracker sizes the tracker for an LLC with the given set count
// and associativity, taking over the scratch's recycled storage (the
// per-line table and per-set slice are the dominant per-run allocations
// of a wear-tracked sweep). A trace of n accesses writes at most n
// distinct lines, which caps the table's view (linetab.Table.Recycle).
// releaseScratch hands the storage back after the run.
func newWearTracker(sets, ways int, accesses int64, scratch *Scratch) *WearTracker {
	lines := scratch.wearLines
	lines.Recycle(accesses)
	setW := scratch.wearSets
	if cap(setW) < sets {
		setW = make([]uint64, sets)
	} else {
		setW = setW[:sets]
		clear(setW)
	}
	scratch.wearLines, scratch.wearSets = linetab.Table{}, nil
	return &WearTracker{
		lineWrites: lines,
		setWrites:  setW,
		setMask:    uint64(sets - 1),
		ways:       ways,
	}
}

// Record notes one data-array write of the given line.
func (w *WearTracker) Record(line uint64) {
	w.lineWrites.Add(line, 1)
	w.setWrites[line&w.setMask]++
	w.total++
}

// WearStats summarizes write wear at the end of a run.
type WearStats struct {
	// TotalWrites is every data-array write (fills + writebacks).
	TotalWrites uint64
	// LinesTouched is the number of distinct line addresses written.
	LinesTouched int
	// MaxLineWrites is the hottest single line's write count — the raw
	// (unleveled) wear-out driver.
	MaxLineWrites uint64
	// MaxSetWrites is the hottest set's total write count.
	MaxSetWrites uint64
	// Ways is the LLC associativity, used to compute the ideally-leveled
	// per-cell wear.
	Ways int
	// Sets is the LLC set count.
	Sets int
	// SetWriteCoV is the coefficient of variation (σ/µ) of per-set write
	// counts: 0 for perfectly even spatial wear, large when a few sets
	// take most of the traffic.
	SetWriteCoV float64
	// SetWriteGini is the Gini coefficient of per-set write counts
	// (0 = perfectly even, → 1 as wear concentrates in few sets) — the
	// single-number form of the per-set wear heatmap.
	SetWriteGini float64
}

// LeveledMaxLineWrites is the hottest physical line's write count under
// ideal intra-set wear leveling: the hottest set's writes spread evenly
// over its ways.
func (s WearStats) LeveledMaxLineWrites() uint64 {
	if s.Ways <= 0 {
		return s.MaxLineWrites
	}
	return (s.MaxSetWrites + uint64(s.Ways) - 1) / uint64(s.Ways)
}

// ImbalanceFactor is the ratio of actual hottest-line wear to the
// ideally-leveled wear — the headroom an intra-set wear-leveling scheme
// could reclaim (≥ 1).
func (s WearStats) ImbalanceFactor() float64 {
	leveled := s.LeveledMaxLineWrites()
	if leveled == 0 {
		return 1
	}
	f := float64(s.MaxLineWrites) / float64(leveled)
	if f < 1 {
		return 1
	}
	return f
}

// Stats snapshots the tracker.
func (w *WearTracker) Stats() WearStats {
	s := WearStats{
		TotalWrites:  w.total,
		LinesTouched: w.lineWrites.Len(),
		Ways:         w.ways,
		Sets:         len(w.setWrites),
	}
	w.lineWrites.Range(func(_, c uint64) {
		s.MaxLineWrites = max(s.MaxLineWrites, c)
	})
	for _, c := range w.setWrites {
		if c > s.MaxSetWrites {
			s.MaxSetWrites = c
		}
	}
	s.SetWriteCoV, s.SetWriteGini = setDispersion(w.setWrites)
	return s
}

// setDispersion computes the CoV and Gini coefficient of the per-set
// write distribution. Both are 0 for an idle or perfectly even cache.
func setDispersion(setWrites []uint64) (cov, gini float64) {
	n := len(setWrites)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, c := range setWrites {
		sum += float64(c)
	}
	if sum == 0 {
		return 0, 0
	}
	mean := sum / float64(n)
	var varsum float64
	sorted := make([]float64, n)
	for i, c := range setWrites {
		v := float64(c)
		d := v - mean
		varsum += d * d
		sorted[i] = v
	}
	cov = math.Sqrt(varsum/float64(n)) / mean
	// Gini via the sorted-rank formula: G = (2·Σ i·xᵢ)/(n·Σx) − (n+1)/n,
	// with xᵢ ascending and i 1-based.
	sort.Float64s(sorted)
	var ranked float64
	for i, v := range sorted {
		ranked += float64(i+1) * v
	}
	gini = 2*ranked/(float64(n)*sum) - float64(n+1)/float64(n)
	if gini < 0 {
		gini = 0
	}
	return cov, gini
}
