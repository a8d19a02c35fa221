// Package prism computes architecture-agnostic workload features from
// memory access traces, reproducing the characterization the paper performs
// with the PRISM framework (Section IV-B, Table VI).
//
// For each trace it computes, separately for reads and writes:
//
//   - Global memory entropy: Shannon entropy (equation (9)) of the accessed
//     address distribution — a measure of temporal locality.
//   - Local memory entropy: the same entropy computed after skipping the M
//     lowest-order address bits (M = 10, reflecting page size) — a measure
//     of spatial locality over memory regions.
//   - Unique address footprint: the number of distinct addresses touched.
//   - 90% footprint: the number of hottest addresses that together account
//     for 90% of all accesses — an estimate of the working set.
//   - Total accesses.
package prism

import (
	"fmt"
	"math"
	"slices"

	"nvmllc/internal/linetab"
	"nvmllc/internal/trace"
)

// DefaultLocalSkipBits is the paper's M: the number of low-order address
// bits skipped for local entropy, chosen to reflect a 1KB page-like region.
const DefaultLocalSkipBits = 10

// Features is one row of the paper's Table VI.
type Features struct {
	// GlobalReadEntropy is H_rg: Shannon entropy of read addresses, bits.
	GlobalReadEntropy float64
	// LocalReadEntropy is H_rl: read entropy with the low M bits skipped.
	LocalReadEntropy float64
	// GlobalWriteEntropy is H_wg.
	GlobalWriteEntropy float64
	// LocalWriteEntropy is H_wl.
	LocalWriteEntropy float64
	// UniqueReads is r_uniq: distinct read addresses.
	UniqueReads uint64
	// UniqueWrites is w_uniq: distinct written addresses.
	UniqueWrites uint64
	// Footprint90Reads is 90%ft_r: hottest read addresses covering 90% of
	// reads.
	Footprint90Reads uint64
	// Footprint90Writes is 90%ft_w.
	Footprint90Writes uint64
	// TotalReads is r_total.
	TotalReads uint64
	// TotalWrites is w_total.
	TotalWrites uint64
}

// FeatureNames lists the Table VI column names, in table order, matching
// the order of Vector.
var FeatureNames = []string{
	"H_rg", "H_rl", "H_wg", "H_wl",
	"r_uniq", "w_uniq", "90%ft_r", "90%ft_w",
	"r_total", "w_total",
}

// Vector returns the features as a float slice in FeatureNames order, for
// use by the correlation framework.
func (f Features) Vector() []float64 {
	return []float64{
		f.GlobalReadEntropy, f.LocalReadEntropy,
		f.GlobalWriteEntropy, f.LocalWriteEntropy,
		float64(f.UniqueReads), float64(f.UniqueWrites),
		float64(f.Footprint90Reads), float64(f.Footprint90Writes),
		float64(f.TotalReads), float64(f.TotalWrites),
	}
}

// Config controls characterization.
type Config struct {
	// LocalSkipBits is M, the low-order bits dropped for local entropy.
	// Zero means DefaultLocalSkipBits.
	LocalSkipBits int
}

func (c Config) skipBits() int {
	if c.LocalSkipBits <= 0 {
		return DefaultLocalSkipBits
	}
	return c.LocalSkipBits
}

// Profiler accumulates per-address access counts incrementally, so traces
// can be characterized in a streaming fashion without being held in memory:
// memory is O(unique addresses), in the count tables of its Scratch.
type Profiler struct {
	cfg                     Config
	sc                      *Scratch
	totalReads, totalWrites uint64
}

// Scratch holds a Profiler's reusable storage: the per-address read and
// write count tables, and the region table and sort buffer Features
// works in. The zero value is ready to use. A Scratch serves one
// profiler at a time, from NewProfilerIn until its last Features call;
// handing it to the next profiler recycles its storage.
type Scratch struct {
	reads, writes, regions linetab.Table
	counts                 []uint64
}

// NewProfilerIn returns an empty profiler on the scratch's recycled
// storage. accesses, the trace's length, bounds the distinct addresses
// and so how much of the storage the count tables view
// (linetab.Table.Recycle).
func NewProfilerIn(cfg Config, accesses int64, sc *Scratch) *Profiler {
	sc.reads.Recycle(accesses)
	sc.writes.Recycle(accesses)
	return &Profiler{cfg: cfg, sc: sc}
}

// Observe records one access. Instruction fetches are ignored, as PRISM
// profiles data references.
func (p *Profiler) Observe(a trace.Access) {
	switch a.Kind {
	case trace.Read:
		p.sc.reads.Add(a.Addr, 1)
		p.totalReads++
	case trace.Write:
		p.sc.writes.Add(a.Addr, 1)
		p.totalWrites++
	}
}

// Features computes the feature vector from everything observed so far.
func (p *Profiler) Features() Features {
	m := p.cfg.skipBits()
	f := Features{
		UniqueReads:  uint64(p.sc.reads.Len()),
		UniqueWrites: uint64(p.sc.writes.Len()),
		TotalReads:   p.totalReads,
		TotalWrites:  p.totalWrites,
	}
	f.GlobalReadEntropy, f.LocalReadEntropy, f.Footprint90Reads = p.sc.measure(&p.sc.reads, p.totalReads, m)
	f.GlobalWriteEntropy, f.LocalWriteEntropy, f.Footprint90Writes = p.sc.measure(&p.sc.writes, p.totalWrites, m)
	return f
}

// measure computes one access kind's global entropy, local entropy and
// 90% footprint from its count table, whose counts sum to n. Each
// distribution is sorted once; a run-length pass over the sorted counts
// gives the entropy, a walk down from the top the footprint.
func (sc *Scratch) measure(tab *linetab.Table, n uint64, skipBits int) (global, local float64, ft90 uint64) {
	sc.counts = sortedCounts(tab, sc.counts)
	global = entropy(sc.counts, n)
	ft90 = footprint(sc.counts, n, 0.9)
	// Re-bin by region: the local distribution has at most as many
	// regions as the global one has addresses.
	sc.regions.Recycle(int64(tab.Len()))
	tab.Range(func(addr, c uint64) { sc.regions.Add(addr>>uint(skipBits), c) })
	sc.counts = sortedCounts(&sc.regions, sc.counts)
	local = entropy(sc.counts, n)
	return global, local, ft90
}

// sortedCounts returns the table's values in ascending order, in buf's
// storage.
func sortedCounts(t *linetab.Table, buf []uint64) []uint64 {
	buf = buf[:0]
	t.Range(func(_, c uint64) { buf = append(buf, c) })
	slices.Sort(buf)
	return buf
}

// Characterize computes the features of an in-memory trace.
func Characterize(t *trace.Trace, cfg Config) Features {
	p := NewProfilerIn(cfg, int64(len(t.Accesses)), new(Scratch))
	for _, a := range t.Accesses {
		p.Observe(a)
	}
	return p.Features()
}

// entropy computes the Shannon entropy (equation (9)) in bits of the
// distribution given by per-address access counts, in ascending order
// and summing to n: H = -Σ p(x_i)·log2(p(x_i)) with p(x_i) the access
// frequency of address i. An empty or single-address distribution has
// zero entropy.
//
// Addresses seen equally often contribute equally, so the sum runs over
// the distinct counts k, in ascending order, each term weighted by the
// number m_k of addresses seen k times — the length of k's run in the
// sorted counts. The fixed order makes the result bit-identical from run
// to run, however the counts were gathered.
func entropy(sorted []uint64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	var h float64
	fn := float64(n)
	for i := 0; i < len(sorted); {
		k := sorted[i]
		j := i + 1
		for j < len(sorted) && sorted[j] == k {
			j++
		}
		if k != 0 {
			p := float64(k) / fn
			h -= float64(j-i) * p * math.Log2(p)
		}
		i = j
	}
	if h < 0 { // guard against -0 from rounding
		h = 0
	}
	return h
}

// footprint returns the number of hottest addresses that together cover
// at least the given fraction of all n accesses (the paper's 90%
// footprint with frac = 0.9), from counts in ascending order.
func footprint(sorted []uint64, n uint64, frac float64) uint64 {
	if frac <= 0 || n == 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	need := uint64(math.Ceil(frac * float64(n)))
	var cum, taken uint64
	for i := len(sorted) - 1; i >= 0; i-- {
		cum += sorted[i]
		taken++
		if cum >= need {
			break
		}
	}
	return taken
}

// String renders the features as a compact single-line summary.
func (f Features) String() string {
	return fmt.Sprintf(
		"Hrg=%.2f Hrl=%.2f Hwg=%.2f Hwl=%.2f r_uniq=%d w_uniq=%d 90ft_r=%d 90ft_w=%d r_tot=%d w_tot=%d",
		f.GlobalReadEntropy, f.LocalReadEntropy, f.GlobalWriteEntropy, f.LocalWriteEntropy,
		f.UniqueReads, f.UniqueWrites, f.Footprint90Reads, f.Footprint90Writes,
		f.TotalReads, f.TotalWrites)
}
