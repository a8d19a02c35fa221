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
	"sort"

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
// can be characterized in a streaming fashion without being held in memory.
type Profiler struct {
	cfg    Config
	reads  map[uint64]uint64
	writes map[uint64]uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler(cfg Config) *Profiler {
	return &Profiler{
		cfg:    cfg,
		reads:  make(map[uint64]uint64),
		writes: make(map[uint64]uint64),
	}
}

// Observe records one access. Instruction fetches are ignored, as PRISM
// profiles data references.
func (p *Profiler) Observe(a trace.Access) {
	switch a.Kind {
	case trace.Read:
		p.reads[a.Addr]++
	case trace.Write:
		p.writes[a.Addr]++
	}
}

// ObserveStream drains a stream into the profiler.
func (p *Profiler) ObserveStream(s trace.Stream) {
	for {
		a, ok := s.Next()
		if !ok {
			return
		}
		p.Observe(a)
	}
}

// Features computes the feature vector from everything observed so far.
func (p *Profiler) Features() Features {
	m := p.cfg.skipBits()
	return Features{
		GlobalReadEntropy:  Entropy(p.reads),
		LocalReadEntropy:   Entropy(maskCounts(p.reads, m)),
		GlobalWriteEntropy: Entropy(p.writes),
		LocalWriteEntropy:  Entropy(maskCounts(p.writes, m)),
		UniqueReads:        uint64(len(p.reads)),
		UniqueWrites:       uint64(len(p.writes)),
		Footprint90Reads:   Footprint(p.reads, 0.9),
		Footprint90Writes:  Footprint(p.writes, 0.9),
		TotalReads:         total(p.reads),
		TotalWrites:        total(p.writes),
	}
}

// Characterize computes the features of an in-memory trace.
func Characterize(t *trace.Trace, cfg Config) Features {
	p := NewProfiler(cfg)
	for _, a := range t.Accesses {
		p.Observe(a)
	}
	return p.Features()
}

// Entropy computes the Shannon entropy (equation (9)) in bits of the
// distribution given by per-address access counts:
// H = -Σ p(x_i)·log2(p(x_i)) with p(x_i) the access frequency of address i.
// An empty or single-address distribution has zero entropy.
//
// Addresses seen equally often contribute equally, so the sum runs over
// the distinct counts k, in ascending order, each term weighted by the
// number m_k of addresses seen k times. The fixed order makes the result
// bit-identical from run to run, where a sum in map order is not.
func Entropy(counts map[uint64]uint64) float64 {
	n := total(counts)
	if n == 0 {
		return 0
	}
	mult := make(map[uint64]uint64)
	for _, c := range counts {
		if c != 0 {
			mult[c]++
		}
	}
	ks := make([]uint64, 0, len(mult))
	for k := range mult {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	var h float64
	fn := float64(n)
	for _, k := range ks {
		p := float64(k) / fn
		h -= float64(mult[k]) * p * math.Log2(p)
	}
	if h < 0 { // guard against -0 from rounding
		h = 0
	}
	return h
}

// Footprint returns the number of hottest addresses that together cover at
// least the given fraction of all accesses (the paper's 90% footprint with
// frac = 0.9).
func Footprint(counts map[uint64]uint64, frac float64) uint64 {
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	n := total(counts)
	if n == 0 {
		return 0
	}
	cs := make([]uint64, 0, len(counts))
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] > cs[j] })
	need := uint64(math.Ceil(frac * float64(n)))
	var cum, taken uint64
	for _, c := range cs {
		cum += c
		taken++
		if cum >= need {
			break
		}
	}
	return taken
}

// maskCounts re-bins counts with the low skip bits dropped.
func maskCounts(counts map[uint64]uint64, skipBits int) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(counts)/4+1)
	for addr, c := range counts {
		out[addr>>uint(skipBits)] += c
	}
	return out
}

func total(counts map[uint64]uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// String renders the features as a compact single-line summary.
func (f Features) String() string {
	return fmt.Sprintf(
		"Hrg=%.2f Hrl=%.2f Hwg=%.2f Hwl=%.2f r_uniq=%d w_uniq=%d 90ft_r=%d 90ft_w=%d r_tot=%d w_tot=%d",
		f.GlobalReadEntropy, f.LocalReadEntropy, f.GlobalWriteEntropy, f.LocalWriteEntropy,
		f.UniqueReads, f.UniqueWrites, f.Footprint90Reads, f.Footprint90Writes,
		f.TotalReads, f.TotalWrites)
}
