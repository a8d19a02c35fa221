// Package fault models wear-driven stuck-at faults in an NVM-based LLC
// and the graceful degradation that follows them, the regime past the
// first-cell failure that internal/endurance's closed-form estimate stops
// at. The paper's Table I gives the per-cell write budgets (PCRAM wears
// out after 10⁷–10⁸ writes); L2C2 (Escuin et al., arXiv:2204.09504) shows
// that a cache whose cells start failing keeps serving at reduced
// capacity if faulty blocks are disabled instead of taking the whole
// array down. This package implements that block-disabling policy as a
// deterministic, seed-derived process so degraded runs are exactly
// reproducible and cacheable.
//
// The model is intentionally independent of the tag-store layout (the
// cache package's SoA store and its AoS test oracle agree under faults).
// Wear is tracked per
// set under an ideal intra-set-leveling assumption (each data-array write
// to a set adds 1/enabled(set) writes of wear to each of its live cells —
// the WriteSmoothing-style upper bound internal/endurance also uses), and
// each (set, way) cell draws a deterministic endurance threshold from a
// seeded hash. When a set's cumulative per-cell wear approaches a cell's
// threshold the cache enters a write-verify window (each write needs one
// extra attempt); when it crosses the threshold the write fails its
// bounded retries, the line being written is condemned, and the way is
// disabled — the set keeps operating at associativity enabled-1. A set
// whose last way fails is dead and bypassed to DRAM.
package fault

import (
	"fmt"
	"math"
	"sort"

	"nvmllc/internal/nvm"
)

// Options selects the endurance budget the fault process and the
// analytical lifetime estimate (endurance.Estimate) share.
type Options struct {
	// Class is the LLC's technology class; its Table I write endurance
	// (nvm.WriteEndurance) is the per-cell budget unless overridden.
	Class nvm.Class
	// EnduranceWrites, when positive, overrides the class's Table I
	// endurance with an explicit per-cell write budget.
	EnduranceWrites float64
}

// Endurance resolves the per-cell write budget: the explicit override
// when positive, otherwise the class's Table I figure.
func (o Options) Endurance() float64 {
	if o.EnduranceWrites > 0 {
		return o.EnduranceWrites
	}
	return nvm.WriteEndurance(o.Class)
}

// Config parameterizes the fault process. The zero value is inert: class
// SRAM resolves to infinite endurance, so no fault can ever fire and the
// simulator behaves bit-identically to a fault-free build.
type Config struct {
	Options
	// Seed drives the per-cell threshold draws. Zero (the default)
	// derives a seed from the cache geometry and endurance budget, the
	// same convention as cache.Config.VictimSeed; set it explicitly to
	// pin the fault sequence across differently-shaped caches.
	Seed uint64
	// Spread is the half-width, in powers of two, of the per-cell
	// threshold distribution: a cell's threshold is
	// endurance × 2^((2u−1)·Spread) for a uniform u ∈ [0,1), so cells die
	// between endurance/2^Spread and endurance×2^Spread writes with the
	// nominal budget as the median. Zero selects the default 1; negative
	// is invalid.
	Spread float64
	// MaxRetries bounds the write-verify attempts charged when a write
	// lands on a worn-out cell before the line is condemned. Zero selects
	// the default 3; negative is invalid.
	MaxRetries int
	// SoftFraction is the fraction of the next-failing cell's threshold
	// at which the set enters the write-verify window (one extra attempt
	// per write). Zero selects the default 0.9; must be in (0, 1].
	SoftFraction float64
	// PreWearWrites is the per-cell write count the array has already
	// absorbed before the run starts, under the same ideal-leveling
	// assumption (every cell aged equally). The degradation-over-lifetime
	// artifact sweeps this to replay a workload at increasing ages; cells
	// whose threshold is below it start the run condemned.
	PreWearWrites float64
}

// Enabled reports whether the fault process can fire at all: the
// resolved endurance budget is finite and positive. The zero value is
// disabled.
func (c Config) Enabled() bool {
	e := c.Endurance()
	return e > 0 && !math.IsInf(e, 1)
}

// Validate checks the configuration. The zero value is valid (and
// inert).
func (c Config) Validate() error {
	if c.EnduranceWrites < 0 {
		return fmt.Errorf("fault: endurance writes %g, want ≥ 0", c.EnduranceWrites)
	}
	if c.Spread < 0 {
		return fmt.Errorf("fault: spread %g, want ≥ 0", c.Spread)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fault: max retries %d, want ≥ 0", c.MaxRetries)
	}
	if c.SoftFraction < 0 || c.SoftFraction > 1 {
		return fmt.Errorf("fault: soft fraction %g, want in [0,1]", c.SoftFraction)
	}
	if c.PreWearWrites < 0 {
		return fmt.Errorf("fault: pre-wear writes %g, want ≥ 0", c.PreWearWrites)
	}
	return nil
}

// spread, softFraction and maxRetries resolve zero-value defaults, the
// same convention as HybridConfig.threshold.
func (c Config) spread() float64 {
	if c.Spread <= 0 {
		return 1
	}
	return c.Spread
}

func (c Config) softFraction() float64 {
	if c.SoftFraction <= 0 {
		return 0.9
	}
	return c.SoftFraction
}

func (c Config) maxRetries() int {
	if c.MaxRetries <= 0 {
		return 3
	}
	return c.MaxRetries
}

// seed resolves the threshold-draw seed: the explicit override when set,
// otherwise a derivation mixing the geometry and endurance budget
// (mirroring cache.Config.victimSeed) so differently-shaped caches draw
// independent fault sequences.
func (c Config) seed(sets, ways int) uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	h := uint64(sets)<<32 ^ uint64(ways)
	h ^= math.Float64bits(c.Endurance())
	h = mix64(h + 0x9E3779B97F4A7C15)
	if h == 0 {
		h = 0x9E3779B97F4A7C15
	}
	return h
}

// mix64 is the splitmix64 finalizer, the same mixer the cache's victim
// seed derivation uses.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hash01 draws a deterministic uniform value in [0,1) for cell (set,
// way) under the given seed.
func hash01(seed, set, way uint64) float64 {
	x := mix64(seed ^ mix64(set+0x9E3779B97F4A7C15) ^ mix64(way+0xD1B54A32D192ED03))
	return float64(x>>11) / (1 << 53)
}

// Outcome reports what happened to one data-array write.
type Outcome struct {
	// Retries is the number of extra write attempts charged (the
	// write-verify path): one inside the soft window, MaxRetries when the
	// write fails.
	Retries int
	// Condemned reports that the write failed its retries: the line being
	// written is lost and its way must be disabled.
	Condemned bool
}

// setState is the per-set wear bookkeeping. Per-way thresholds are not
// stored — only the next one to fail — and are recomputed from the seed
// at the rare condemnation events.
type setState struct {
	// wear is the cumulative per-cell write count under ideal intra-set
	// leveling. While a countdown is armed (skip > 1) the wear already
	// includes the skipped writes: rearm advanced it with the same
	// repeated additions OnWrite would have performed, so the float
	// trajectory — including any rounding stall — is bit-identical to
	// evaluating every write eagerly.
	wear float64
	// next is the smallest threshold among still-enabled cells (+Inf for
	// a dead set); soft is SoftFraction × next.
	next, soft float64
	// inv caches 1/enabled, the per-write wear increment (0 for a dead
	// set), so the hot path never divides.
	inv float64
	// look is the adaptive rearm lookahead cap; it doubles every time a
	// rearm exhausts it so hot sets amortize toward O(1) slow visits.
	look int32
	// enabled counts live ways.
	enabled uint16
}

// Injector runs the fault process for one cache geometry. It is not safe
// for concurrent use; the simulator drives it from its single-threaded
// hot path.
type Injector struct {
	cfg        Config
	seed       uint64
	endurance  float64
	spread     float64
	softFrac   float64
	maxRetries int
	setMask    uint64
	ways       int
	sets       []setState
	// skip is the per-set quiescent-write countdown, split out of
	// setState into its own dense array so the fast path's only memory
	// touch is 4 bytes per set: at 8K sets that is a 32 KB table that
	// stays cache-resident under random write traffic, where the full
	// 40-byte setState records would thrash. A write finding skip > 1
	// just decrements it — rearm already proved (by exact replay) that
	// the skipped writes stay below the soft window; skip == 1 forces
	// the slow path.
	skip  []int32
	stats Stats
	// snap freezes the per-set records as New left them; Reset restores
	// it so a pooled injector skips re-drawing and re-sorting every
	// cell's threshold — the dominant construction cost (ways hash
	// draws and a sort per set, ~10⁵ Exp2 calls for an 8K-set LLC).
	snap      []setState
	snapStats Stats
	// scratch holds per-way thresholds during recomputation.
	scratch []float64
}

// New builds an injector for a sets×ways cache, applying any pre-aging.
// sets must be a power of two (the simulator's caches guarantee it).
func New(cfg Config, sets, ways int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("fault: config is disabled (endurance %g)", cfg.Endurance())
	}
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("fault: set count %d must be a positive power of two", sets)
	}
	if ways <= 0 || ways > math.MaxUint16 {
		return nil, fmt.Errorf("fault: ways %d out of range", ways)
	}
	inj := &Injector{
		cfg:        cfg,
		seed:       cfg.seed(sets, ways),
		endurance:  cfg.Endurance(),
		spread:     cfg.spread(),
		softFrac:   cfg.softFraction(),
		maxRetries: cfg.maxRetries(),
		setMask:    uint64(sets - 1),
		ways:       ways,
		sets:       make([]setState, sets),
		skip:       make([]int32, sets),
		scratch:    make([]float64, ways),
	}
	inj.stats = Stats{
		EnduranceWrites: inj.endurance,
		Sets:            sets,
		Ways:            ways,
		EnabledLines:    sets * ways,
	}
	for s := range inj.sets {
		st := &inj.sets[s]
		st.wear = cfg.PreWearWrites
		// Pre-aging condemns every cell whose threshold is already below
		// the absorbed wear.
		ts := inj.setThresholds(uint64(s))
		condemned := sort.SearchFloat64s(ts, st.wear)
		for condemned < ways && ts[condemned] == st.wear {
			condemned++ // thresholds equal to the wear are spent too
		}
		st.enabled = uint16(ways - condemned)
		inj.setNext(st, ts, condemned)
		st.inv = 0
		if st.enabled > 0 {
			st.inv = 1 / float64(st.enabled)
		}
		inj.skip[s] = 1 // first write takes the slow path and arms the countdown
		st.look = minLookahead
		if condemned > 0 {
			inj.stats.InitialDisabledWays += condemned
			inj.stats.EnabledLines -= condemned
			if st.enabled == 0 {
				inj.stats.DeadSets++
			}
		}
	}
	inj.snap = append([]setState(nil), inj.sets...)
	inj.snapStats = inj.stats
	return inj, nil
}

// Matches reports whether the injector was built for exactly this
// configuration and geometry, making Reset-and-reuse equivalent to a
// fresh New.
func (inj *Injector) Matches(cfg Config, sets, ways int) bool {
	return inj.cfg == cfg && len(inj.sets) == sets && inj.ways == ways
}

// Reset restores the injector to its post-construction state: pristine
// per-set records, the one-write countdown re-armed everywhere, and the
// construction-time stats. A reset injector is indistinguishable from a
// newly built one but costs a memcpy instead of re-deriving every
// cell's threshold, which is what makes pooling it across repeated runs
// of one design point worthwhile (system.Scratch holds the pooled
// injector).
func (inj *Injector) Reset() {
	copy(inj.sets, inj.snap)
	for i := range inj.skip {
		inj.skip[i] = 1
	}
	inj.stats = inj.snapStats
}

// threshold is cell (set, way)'s endurance threshold: the nominal budget
// scaled by 2^((2u−1)·Spread) for the cell's deterministic u.
func (inj *Injector) threshold(set, way uint64) float64 {
	u := hash01(inj.seed, set, way)
	return inj.endurance * math.Exp2((2*u-1)*inj.spread)
}

// setThresholds fills the scratch buffer with the set's per-way
// threshold draws, sorted ascending. Runs at construction and at the
// rare condemnation events, never on the per-write fast path.
func (inj *Injector) setThresholds(set uint64) []float64 {
	ts := inj.scratch[:inj.ways]
	for w := range ts {
		ts[w] = inj.threshold(set, uint64(w))
	}
	sort.Float64s(ts)
	return ts
}

// setNext points st at the (condemned+1)-th smallest threshold — the
// next cell to fail. Exactly one way is condemned per failed write, so
// the rank advances one step at a time and the cache's per-set disabled
// count stays in lockstep with the injector's.
func (inj *Injector) setNext(st *setState, ts []float64, condemned int) {
	if condemned >= inj.ways {
		st.next = math.Inf(1)
		st.soft = math.Inf(1)
		return
	}
	st.next = ts[condemned]
	st.soft = inj.softFrac * st.next
}

// set returns the set index of a line address.
func (inj *Injector) set(line uint64) uint64 { return line & inj.setMask }

// IsDead reports whether the set holding line has no enabled ways left.
// Until the first set actually dies — never, in the quiescent regime —
// it answers from the injector header without touching the per-set
// records, keeping the per-access probe free of random memory traffic.
func (inj *Injector) IsDead(line uint64) bool {
	if inj.stats.DeadSets == 0 {
		return false
	}
	return inj.sets[inj.set(line)].enabled == 0
}

// DisabledWays returns the number of condemned ways in a set (used to
// mirror pre-aged disabling into the cache at construction).
func (inj *Injector) DisabledWays(set int) int {
	return inj.ways - int(inj.sets[set].enabled)
}

// Rearm lookahead bounds. The cap starts small so cold sets pay a few
// additions at most, and doubles whenever a rearm exhausts it so a
// hammered set converges to O(1) slow-path visits; wasted lookahead at
// the end of a run is bounded by the last cap, which the doubling keeps
// within ~2× the writes the set actually absorbed.
const (
	// minLookahead starts small because the replay cost is paid up
	// front: a benchmark spreading writes thinly over thousands of sets
	// visits each set only a handful of times, and a 32-write opening
	// replay would cost more float work than evaluating those writes
	// eagerly. Eight bounds the wasted lookahead at ~2× the writes a
	// barely-touched set actually absorbs while still letting the
	// doubling reach maxLookahead within a dozen slow visits.
	minLookahead = 8
	maxLookahead = 1 << 15
	// quiescentSkip is the countdown armed when repeated addition has
	// stalled (wear + inv rounds back to wear): no future write can move
	// the wear, so the set can never reach its soft window and every
	// remaining write is quiescent. It saturates the int32 countdown
	// slot; the one-in-2³¹-writes exhaustion just re-detects the stall
	// on the slow path and re-arms.
	quiescentSkip = int64(math.MaxInt32 - 1)
)

// OnWrite advances the wear of the written line's set by one data-array
// write and reports the write-verify outcome. The caller must not invoke
// it for dead sets (check IsDead first — dead sets take no array
// writes).
//
// The common case — a set far from its next failure — is a single
// countdown decrement against the dense 4-byte-per-set skip table:
// rearm has already replayed the skipped writes' wear additions and
// proved each lands below the soft window, so the fast path changes no
// observable state an eager evaluation wouldn't, and touches none of
// the wide per-set records.
func (inj *Injector) OnWrite(line uint64) Outcome {
	si := line & inj.setMask
	if k := inj.skip[si]; k > 1 {
		inj.skip[si] = k - 1
		return Outcome{}
	}
	return inj.onWriteSlow(si, &inj.sets[si])
}

// onWriteSlow is the countdown-expired path: apply this write's wear
// addition, classify it against the thresholds exactly as the eager
// algorithm did, and re-arm the countdown when the set stays quiescent.
func (inj *Injector) onWriteSlow(si uint64, st *setState) Outcome {
	// One set write ages every live cell by 1/enabled under ideal
	// intra-set leveling.
	st.wear += st.inv
	switch {
	case st.wear >= st.next:
		// The weakest live cell is past its budget: the write fails all
		// its verify retries, the line is lost, the way is disabled. If
		// the wear has crossed several thresholds at once the following
		// writes condemn the remaining cells one by one.
		st.enabled--
		st.inv = 0
		if st.enabled > 0 {
			st.inv = 1 / float64(st.enabled)
		}
		inj.skip[si] = 1
		st.look = minLookahead
		inj.stats.WriteRetries += uint64(inj.maxRetries)
		inj.stats.FailedWrites++
		inj.stats.CondemnedWays++
		inj.stats.EnabledLines--
		inj.setNext(st, inj.setThresholds(si), inj.ways-int(st.enabled))
		if st.enabled == 0 {
			inj.stats.DeadSets++
		}
		return Outcome{Retries: inj.maxRetries, Condemned: true}
	case st.wear >= st.soft:
		// Write-verify window: the write needs one extra attempt. Every
		// write from here to the condemnation must be charged, so the
		// countdown stays disarmed.
		inj.skip[si] = 1
		inj.stats.WriteRetries++
		return Outcome{Retries: 1}
	default:
		inj.rearm(si, st)
		return Outcome{}
	}
}

// rearm advances the set's wear through as many future writes as it can
// prove quiescent — by performing the exact additions those writes would
// perform, so rounding (including the stall where wear + inv rounds back
// to wear) is reproduced bit-for-bit — and arms the countdown to skip
// them. The first write past the lookahead takes the slow path and
// re-evaluates.
func (inj *Injector) rearm(si uint64, st *setState) {
	look := int64(st.look)
	w, inv, soft := st.wear, st.inv, st.soft
	var q int64
	for q < look {
		w2 := w + inv
		if w2 >= soft {
			break
		}
		if w2 == w {
			// The increment is below the wear's rounding granularity:
			// wear can never advance again, so the soft window is
			// unreachable and every future write is quiescent.
			q = quiescentSkip
			break
		}
		w = w2
		q++
	}
	st.wear = w
	inj.skip[si] = int32(q + 1)
	if q >= look && st.look < maxLookahead {
		st.look <<= 1
	}
}

// NoteDeadAccess counts a demand access that found its set dead and was
// served straight from DRAM.
func (inj *Injector) NoteDeadAccess() { inj.stats.DeadSetAccesses++ }

// NoteDeadWrite counts a write routed around a dead set to DRAM.
func (inj *Injector) NoteDeadWrite() { inj.stats.DeadSetWrites++ }

// Stats snapshots the degradation counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// Stats summarizes the fault process at the end of a run; system.Result
// carries it as the Degradation field.
type Stats struct {
	// EnduranceWrites is the resolved per-cell write budget the run used.
	EnduranceWrites float64
	// Sets and Ways give the cache geometry the counters are against.
	Sets, Ways int
	// InitialDisabledWays counts ways condemned by pre-aging before the
	// run's first access; CondemnedWays counts runtime condemnations.
	InitialDisabledWays int
	CondemnedWays       int
	// DeadSets counts sets with no enabled ways left (bypassed to DRAM).
	DeadSets int
	// WriteRetries is the total extra write attempts charged by the
	// write-verify path (energy but no critical-path latency, like every
	// other LLC write).
	WriteRetries uint64
	// FailedWrites counts writes that exhausted their retries and lost
	// the line being written.
	FailedWrites uint64
	// DeadSetAccesses and DeadSetWrites count traffic bypassed to DRAM
	// because its set had no enabled ways left.
	DeadSetAccesses uint64
	DeadSetWrites   uint64
	// EnabledLines is the number of still-usable lines at the end of the
	// run.
	EnabledLines int
}

// TotalLines is the geometric line count.
func (s Stats) TotalLines() int { return s.Sets * s.Ways }

// CapacityFraction is the fraction of the array still usable: enabled
// lines over total lines (1 for a healthy cache, 0 for a dead one).
func (s Stats) CapacityFraction() float64 {
	if t := s.TotalLines(); t > 0 {
		return float64(s.EnabledLines) / float64(t)
	}
	return 1
}
