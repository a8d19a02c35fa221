package prism

import (
	"fmt"

	"nvmllc/internal/linetab"
	"nvmllc/internal/trace"
)

// Time-windowed characterization: the paper's Table VI metrics are
// whole-trace aggregates; phase behavior (the working set growing and
// shrinking as an application moves between phases) is what makes a
// fixed-capacity LLC alternately comfortable and starved. WindowProfile
// slices a trace into fixed-size windows and reports per-window footprints
// and entropies, giving the working-set-over-time curve.

// WindowFeatures summarizes one window of a trace.
type WindowFeatures struct {
	// StartAccess is the index of the window's first access.
	StartAccess int
	// UniqueLines is the number of distinct 64B lines touched.
	UniqueLines uint64
	// GlobalEntropy is the Shannon entropy of the window's addresses.
	GlobalEntropy float64
	// WriteFrac is the store share of the window.
	WriteFrac float64
}

// WindowProfile computes per-window features over windowSize accesses
// (the final partial window is included if at least a quarter full).
func WindowProfile(t *trace.Trace, windowSize int) ([]WindowFeatures, error) {
	if windowSize <= 0 {
		return nil, fmt.Errorf("prism: window size %d must be positive", windowSize)
	}
	var out []WindowFeatures
	// One address table and one line table serve every window, each
	// emptied to the window's size, and one buffer sorts each window's
	// counts.
	var counts, lines linetab.Table
	var sorted []uint64
	for start := 0; start < len(t.Accesses); start += windowSize {
		end := start + windowSize
		if end > len(t.Accesses) {
			end = len(t.Accesses)
		}
		if end-start < windowSize/4 && start > 0 {
			break
		}
		counts.Reset(end - start)
		lines.Reset(end - start)
		var data uint64
		writes := 0
		for _, a := range t.Accesses[start:end] {
			if a.Kind == trace.Ifetch {
				continue
			}
			counts.Add(a.Addr, 1)
			lines.FetchOr(a.Addr>>6, 1)
			data++
			if a.Kind == trace.Write {
				writes++
			}
		}
		sorted = sortedCounts(&counts, sorted)
		n := end - start
		out = append(out, WindowFeatures{
			StartAccess:   start,
			UniqueLines:   uint64(lines.Len()),
			GlobalEntropy: entropy(sorted, data),
			WriteFrac:     float64(writes) / float64(n),
		})
	}
	return out, nil
}

// WorkingSetCurve returns just the per-window unique-line counts — the
// classic working-set-over-time curve, in 64B lines.
func WorkingSetCurve(t *trace.Trace, windowSize int) ([]uint64, error) {
	ws, err := WindowProfile(t, windowSize)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(ws))
	for i, w := range ws {
		out[i] = w.UniqueLines
	}
	return out, nil
}

// PeakWorkingSetBytes returns the largest windowed working set in bytes,
// the number a capacity-planning designer compares against LLC sizes.
func PeakWorkingSetBytes(t *trace.Trace, windowSize int) (uint64, error) {
	curve, err := WorkingSetCurve(t, windowSize)
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, v := range curve {
		if v > max {
			max = v
		}
	}
	return max * 64, nil
}
