// Package profile implements single-pass reuse-distance (Mattson stack)
// profiling of a memory-access trace, from which LRU hit/miss counts for
// every set/way cache geometry in a sweep are derived in O(1) per
// geometry — the single-pass multi-configuration analysis of Haque et
// al. (arXiv:1506.03193), applied to the LLC design-space sweeps of the
// paper's Figures 1-4.
//
// The profiler consumes one decoded trace stream (trace.ChunkSource; the
// engine's trace-sharing layer typically hands it a SliceSource cursor)
// and produces, for each requested power-of-two set count, a bounded
// stack-distance histogram. An access to line L in an S-set LRU cache of
// associativity A hits iff the number of distinct lines mapping to L's
// set and touched since L's previous access is < A — so the histogram
// prefix sum at A is the exact LRU hit count for geometry (S, A), for
// any A up to the histogram bound. This holds for true-LRU only; Random
// and RRIP replacement stay exact-simulation territory (see DESIGN.md
// §17).
//
// Per level the profiler partitions the line stream by set index
// (stability preserves program order within a set; within-set stack
// distance is invariant to interleaving with other sets), then runs each
// set's contiguous substream through a Fenwick-tree distance counter
// (O(log n) per access) with an open-addressed last-touch table, both
// recycled across sets and runs via Scratch (reachable through
// system.Scratch so the engine's scratch pool covers profile jobs too).
package profile

import (
	"fmt"
	"math/bits"

	"nvmllc/internal/cache"
)

// Defaults for Config zero values.
const (
	// DefaultMaxWays bounds the distance histograms: hit counts are exact
	// for any associativity up to this, and every LLC the simulator
	// builds has ≤ 64 ways.
	DefaultMaxWays = 64
	// DefaultBlockBytes matches the Gainestown hierarchy's line size.
	DefaultBlockBytes = 64
)

// Config selects the geometries a profiling pass covers.
type Config struct {
	// BlockBytes is the line size used to map byte addresses to line
	// addresses (default 64).
	BlockBytes int
	// SetCounts are the power-of-two set counts to profile, one
	// stack-distance level each. Order is preserved in Profile.Levels.
	SetCounts []int
	// MaxWays bounds the per-level histograms (default DefaultMaxWays).
	// HitsFor answers exactly for any ways ≤ MaxWays.
	MaxWays int
}

// WithDefaults returns the configuration with zero fields resolved to
// their defaults — the canonical form cache keys should hash, so a
// zero-MaxWays config and an explicit DefaultMaxWays one share an
// identity (they produce identical profiles).
func (cfg Config) WithDefaults() Config { return cfg.withDefaults() }

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	if cfg.MaxWays == 0 {
		cfg.MaxWays = DefaultMaxWays
	}
	return cfg
}

// Validate checks the configuration (after defaulting zero fields).
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return fmt.Errorf("profile: block size %d must be a positive power of two", cfg.BlockBytes)
	}
	if cfg.MaxWays <= 0 || cfg.MaxWays > 4096 {
		return fmt.Errorf("profile: max ways %d out of range [1, 4096]", cfg.MaxWays)
	}
	if len(cfg.SetCounts) == 0 {
		return fmt.Errorf("profile: no set counts requested")
	}
	seen := make(map[int]bool, len(cfg.SetCounts))
	for _, s := range cfg.SetCounts {
		if s <= 0 || s&(s-1) != 0 {
			return fmt.Errorf("profile: set count %d must be a positive power of two", s)
		}
		if seen[s] {
			return fmt.Errorf("profile: duplicate set count %d", s)
		}
		seen[s] = true
	}
	return nil
}

// Level is the stack-distance histogram for one set count.
type Level struct {
	// Sets is the power-of-two set count this level models.
	Sets int `json:"sets"`
	// Hist counts demand accesses by within-set stack distance: Hist[d]
	// for exact distance d < MaxWays, Hist[MaxWays] for distance ≥
	// MaxWays (a miss at every profiled associativity).
	Hist []uint64 `json:"hist"`
	// Cold counts demand first-touch (compulsory) misses — identical
	// across levels, kept per level as a consistency check.
	Cold uint64 `json:"cold"`
	// cum[a] = Σ Hist[0..a-1]: exact LRU hits at associativity a.
	// Rebuilt by finalize after profiling or decoding.
	cum []uint64
}

// UpstreamStats are the private-cache hit statistics of a filtered
// profiling pass (RunFiltered): the L1/L2 levels the LLC stream was
// strained through.
type UpstreamStats struct {
	L1I cache.Stats `json:"l1i"`
	L1D cache.Stats `json:"l1d"`
	L2  cache.Stats `json:"l2"`
}

// Profile is the result of one profiling pass: per-set-count histograms
// plus the stream totals needed to turn them into hit/miss rates.
type Profile struct {
	// Name is the profiled trace's name.
	Name string `json:"name"`
	// BlockBytes is the line size the stream was profiled at.
	BlockBytes int `json:"block_bytes"`
	// MaxWays is the histogram bound.
	MaxWays int `json:"max_ways"`
	// Accesses counts every stack touch (demand + writeback).
	Accesses int64 `json:"accesses"`
	// Demand counts the accesses the histograms classify (for a raw
	// profile every access; for a filtered one the L2 demand misses).
	Demand uint64 `json:"demand"`
	// Writebacks counts non-demand stack touches (a filtered profile's
	// L2 dirty evictions; they update recency but not the histograms).
	Writebacks uint64 `json:"writebacks"`
	// InstrCount is the instruction count of the profiled trace.
	InstrCount uint64 `json:"instr_count"`
	// Threads is the profiled trace's thread count.
	Threads int `json:"threads"`
	// Levels holds one histogram per requested set count.
	Levels []Level `json:"levels"`
	// Upstream carries the private-cache statistics of a filtered pass;
	// nil for a raw profile.
	Upstream *UpstreamStats `json:"upstream,omitempty"`
}

// finalize (re)builds the per-level hit-count prefix sums.
func (p *Profile) finalize() {
	for i := range p.Levels {
		lv := &p.Levels[i]
		cum := make([]uint64, len(lv.Hist)+1)
		for a, h := range lv.Hist {
			cum[a+1] = cum[a] + h
		}
		lv.cum = cum
	}
}

// Validate checks structural invariants and rebuilds derived state; the
// engine's persistence layer runs it on every decoded profile.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: unnamed profile")
	}
	if p.BlockBytes <= 0 || p.BlockBytes&(p.BlockBytes-1) != 0 {
		return fmt.Errorf("profile %s: block size %d must be a positive power of two", p.Name, p.BlockBytes)
	}
	if p.MaxWays <= 0 {
		return fmt.Errorf("profile %s: max ways %d must be positive", p.Name, p.MaxWays)
	}
	if len(p.Levels) == 0 {
		return fmt.Errorf("profile %s: no levels", p.Name)
	}
	for i := range p.Levels {
		lv := &p.Levels[i]
		if lv.Sets <= 0 || lv.Sets&(lv.Sets-1) != 0 {
			return fmt.Errorf("profile %s: level %d set count %d must be a positive power of two", p.Name, i, lv.Sets)
		}
		// level answers from the first level with a set count, so a
		// repeat would never be read.
		if p.level(lv.Sets) != lv {
			return fmt.Errorf("profile %s: level %d repeats set count %d", p.Name, i, lv.Sets)
		}
		if len(lv.Hist) != p.MaxWays+1 {
			return fmt.Errorf("profile %s: level %d histogram has %d buckets, want %d", p.Name, i, len(lv.Hist), p.MaxWays+1)
		}
		// Count down from Demand rather than summing up to it, so no
		// bucket can wrap a uint64 total back onto Demand.
		left := p.Demand
		for _, h := range lv.Hist {
			if h > left {
				return fmt.Errorf("profile %s: level %d histogram classifies more than %d accesses", p.Name, i, p.Demand)
			}
			left -= h
		}
		if lv.Cold != left {
			return fmt.Errorf("profile %s: level %d counts %d cold misses, want the %d accesses its histogram leaves", p.Name, i, lv.Cold, left)
		}
	}
	p.finalize()
	return nil
}

// level returns the histogram for a set count, or nil.
func (p *Profile) level(sets int) *Level {
	for i := range p.Levels {
		if p.Levels[i].Sets == sets {
			return &p.Levels[i]
		}
	}
	return nil
}

// SetCounts lists the profiled set counts in level order.
func (p *Profile) SetCounts() []int {
	out := make([]int, len(p.Levels))
	for i := range p.Levels {
		out[i] = p.Levels[i].Sets
	}
	return out
}

// HitsFor returns the exact LRU demand hit count for a (sets, ways)
// geometry, in O(1). ok is false when the set count was not profiled or
// ways exceeds the histogram bound.
func (p *Profile) HitsFor(sets, ways int) (hits uint64, ok bool) {
	lv := p.level(sets)
	if lv == nil || ways <= 0 || ways > p.MaxWays || len(lv.cum) != len(lv.Hist)+1 {
		return 0, false
	}
	return lv.cum[ways], true
}

// Curve returns the hit-rate-vs-associativity curve for a set count
// (index a-1 holds associativity a), or nil if the set count was not
// profiled.
func (p *Profile) Curve(sets int) []float64 {
	lv := p.level(sets)
	if lv == nil || len(lv.cum) != len(lv.Hist)+1 {
		return nil
	}
	out := make([]float64, p.MaxWays)
	for a := 1; a <= p.MaxWays; a++ {
		if p.Demand > 0 {
			out[a-1] = float64(lv.cum[a]) / float64(p.Demand)
		}
	}
	return out
}

// blockBits returns log2 of the validated block size.
func blockBits(blockBytes int) uint {
	return uint(bits.TrailingZeros64(uint64(blockBytes)))
}
