// Package system is the trace-driven full-system simulator standing in for
// Sniper (Section IV): a multi-core Gainestown-class machine with private
// L1I/L1D/L2 caches, a shared NVM- or SRAM-based LLC, and distributed DRAM
// controllers.
//
// The LLC is the paper's modified Sniper LLC: reads are on the critical
// path with their technology-specific tag and data latencies, writes (fills
// and writebacks) happen off the critical path, and per-access dynamic
// energy follows equations (6)-(8). Leakage integrates over execution time.
// Setting Config.ModelWriteContention recreates the behavior the paper
// flags as absent from its simulator — LLC writes occupying banks and
// delaying reads — and is used by the ablation benchmarks.
package system

import (
	"context"
	"fmt"
	"math/bits"

	"nvmllc/internal/cache"
	"nvmllc/internal/cpu"
	"nvmllc/internal/dram"
	"nvmllc/internal/fault"
	"nvmllc/internal/linetab"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/profile"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/trace"
)

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of cores (threads map 1:1 onto cores).
	Cores int
	// Core is the per-core timing model.
	Core cpu.Params
	// BlockBytes is the line size used at every level (paper: 64).
	BlockBytes int
	// L1IBytes/L1IWays, L1DBytes/L1DWays, L2Bytes/L2Ways size the private
	// levels (Table IV: 32KB/4, 32KB/8, 256KB/8).
	L1IBytes int64
	L1IWays  int
	L1DBytes int64
	L1DWays  int
	L2Bytes  int64
	L2Ways   int
	// L2LatencyNS is the L2 hit latency exposed to loads.
	L2LatencyNS float64
	// LLC is the last-level cache model under evaluation.
	LLC nvsim.LLCModel
	// LLCWays is the LLC associativity (paper: 16).
	LLCWays int
	// LLCBanks is the number of independently schedulable LLC banks, used
	// only when ModelWriteContention is set.
	LLCBanks int
	// DRAM is the main memory model.
	DRAM dram.Config
	// Memory optionally replaces the default DRAM model with any
	// MainMemory implementation (e.g. an internal/mainmem NVM main
	// memory). When set, Result.DRAM stays zero and the caller reads
	// statistics from its own model.
	Memory MainMemory
	// ModelWriteContention, when true, makes LLC writes occupy banks so
	// reads queue behind slow NVM writes. The paper's simulator keeps
	// writes entirely off the critical path (the default, false).
	ModelWriteContention bool
	// TrackWear, when true, records per-line and per-set LLC write counts
	// for the endurance/lifetime study (Section VII future work).
	TrackWear bool
	// Fault parameterizes wear-driven stuck-at fault injection with
	// graceful degradation (internal/fault): LLC writes age the array,
	// worn cells fail their write-verify retries, faulty ways are
	// disabled per-set and dead sets are bypassed to DRAM. The zero value
	// is inert — it resolves to infinite endurance, so the simulation is
	// bit-identical to a fault-free build (test-enforced). Deterministic:
	// the fault sequence is derived from Fault.Seed, never wall-clock or
	// global RNG state, so it participates in the engine's result-cache
	// key like every other Config value field.
	Fault fault.Config
	// LLCPolicy selects the LLC replacement policy (default cache.LRU,
	// the paper's configuration).
	LLCPolicy cache.Policy
	// LLCBypass enables NVM write bypassing at the LLC (default off).
	LLCBypass BypassPolicy
	// DisableCoherence turns off the full-map directory (Table IV) that
	// keeps private caches coherent on multi-threaded traces. Coherence is
	// modeled by default whenever a trace has more than one thread.
	DisableCoherence bool
	// Hybrid replaces the single-technology LLC with a hybrid SRAM/NVM
	// LLC (write-aware placement and migration, the paper's cited
	// technique [7]). When set, Config.LLC is ignored; TrackWear and
	// LLCBypass are unsupported in hybrid mode.
	Hybrid *HybridConfig
	// Telemetry optionally receives the run's instrumentation: per-level
	// cache hit/miss/writeback counters, per-bank LLC contention stalls
	// and the DRAM queue-latency histogram are published into it when the
	// simulation completes. Pure observation: it never alters simulation
	// behavior and is excluded from the engine's result-cache key.
	Telemetry *telemetry.Registry
	// Timeline, when non-nil, samples the run at fixed instruction
	// epochs and surfaces the per-epoch series as Result.Timeline (plus
	// a per-set wear/access heatmap when TrackWear is on). It never
	// alters simulation behavior, but unlike Telemetry it enriches the
	// Result, so the engine's result-cache key includes it: a job with a
	// timeline is a design point of its own, apart from the same job
	// without one.
	Timeline *TimelineConfig
}

// Gainestown returns the paper's simulated architecture (Table IV) around
// the given LLC model.
func Gainestown(llc nvsim.LLCModel) Config {
	return Config{
		Cores:       4,
		Core:        cpu.Gainestown(),
		BlockBytes:  64,
		L1IBytes:    32 << 10,
		L1IWays:     4,
		L1DBytes:    32 << 10,
		L1DWays:     8,
		L2Bytes:     256 << 10,
		L2Ways:      8,
		L2LatencyNS: 3.0, // 8 cycles at 2.66 GHz
		LLC:         llc,
		LLCWays:     16,
		LLCBanks:    4,
		DRAM:        dram.Gainestown(),
	}
}

// WithCores returns a copy configured for n cores.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 64 {
		return fmt.Errorf("system: cores = %d, want 1..64", c.Cores)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if err := c.Timeline.Validate(); err != nil {
		return err
	}
	if c.Hybrid != nil {
		if err := c.Hybrid.Validate(c.LLCWays); err != nil {
			return err
		}
		if c.TrackWear || c.LLCBypass != BypassNone {
			return fmt.Errorf("system: hybrid LLC does not support wear tracking or bypass")
		}
		if c.Fault.Enabled() {
			return fmt.Errorf("system: hybrid LLC does not support fault injection")
		}
	} else if err := c.LLC.Validate(); err != nil {
		return err
	}
	// Check every level's geometry here, not first inside a simulation:
	// the hybrid LLC sizes its own partitions (newHybridLLC).
	llc, l1i, l1d, l2 := c.levels()
	levels := [...]cache.Config{l1i, l1d, l2, llc}
	n := len(levels)
	if c.Hybrid != nil {
		n-- // skip the LLC
	}
	for _, level := range levels[:n] {
		if err := level.Validate(); err != nil {
			return err
		}
	}
	if c.Memory == nil {
		if err := c.DRAM.Validate(); err != nil {
			return err
		}
	}
	if c.LLCBanks <= 0 {
		return fmt.Errorf("system: LLC banks = %d, want positive", c.LLCBanks)
	}
	if c.L2LatencyNS < 0 {
		return fmt.Errorf("system: negative L2 latency")
	}
	return nil
}

// levels returns the cache configuration of the LLC and of each
// private level, as the simulator builds them.
func (c Config) levels() (llc, l1i, l1d, l2 cache.Config) {
	llc = cache.Config{Name: "LLC", CapacityBytes: c.LLC.CapacityBytes, BlockBytes: c.BlockBytes, Ways: c.LLCWays, Policy: c.LLCPolicy}
	l1i = cache.Config{Name: "L1I", CapacityBytes: c.L1IBytes, BlockBytes: c.BlockBytes, Ways: c.L1IWays}
	l1d = cache.Config{Name: "L1D", CapacityBytes: c.L1DBytes, BlockBytes: c.BlockBytes, Ways: c.L1DWays}
	l2 = cache.Config{Name: "L2", CapacityBytes: c.L2Bytes, BlockBytes: c.BlockBytes, Ways: c.L2Ways}
	return llc, l1i, l1d, l2
}

// MainMemory abstracts the memory below the LLC: both internal/dram (the
// paper's fixed-latency bandwidth-limited controllers) and
// internal/mainmem (the NVMain-style row-buffered model) satisfy it.
// Completion times are in ns; writes are posted but still occupy the
// device.
type MainMemory interface {
	Read(nowNS float64, lineAddr uint64) (completeNS float64)
	Write(nowNS float64, lineAddr uint64) (completeNS float64)
}

// LLCStats counts last-level cache events as the paper's energy model needs
// them: demand lookups split into hits and misses, and writes (line fills
// plus writebacks arriving from L2).
type LLCStats struct {
	Hits, Misses, Writes uint64
	// BypassedFills and BypassedWritebacks count LLC writes avoided by
	// the bypass policy (zero unless Config.LLCBypass is enabled).
	BypassedFills, BypassedWritebacks uint64
}

// Accesses is demand lookups (hits + misses).
func (s LLCStats) Accesses() uint64 { return s.Hits + s.Misses }

// WriteFraction is the share of LLC traffic that writes the array —
// writes / (lookups + writes) — the quantity the paper's write-cost
// analysis (Section V) turns on.
func (s LLCStats) WriteFraction() float64 {
	total := s.Accesses() + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.Writes) / float64(total)
}

// Result is the outcome of one simulation.
type Result struct {
	// Workload is the trace name; LLCName identifies the LLC model.
	Workload string
	LLCName  string
	// Cores is the simulated core count.
	Cores int
	// TimeNS is the execution time (slowest core's finish time).
	TimeNS float64
	// Instructions is the total retired instruction count.
	Instructions uint64
	// LLC tallies last-level cache events.
	LLC LLCStats
	// L1I, L1D, L2 aggregate the private-cache stats across cores.
	L1I, L1D, L2 cache.Stats
	// DRAM tallies memory traffic.
	DRAM dram.Stats
	// LLCDynamicJ and LLCLeakageJ decompose LLC energy in joules.
	LLCDynamicJ, LLCLeakageJ float64
	// MemStallNS is the summed per-core load-stall time.
	MemStallNS float64
	// Wear holds LLC write-wear statistics when Config.TrackWear is set.
	Wear *WearStats
	// Degradation holds the fault-injection outcome (condemned ways,
	// write-verify retries, surviving capacity) when Config.Fault is
	// enabled; nil otherwise.
	Degradation *fault.Stats
	// Directory tallies coherence traffic (zero when coherence is off or
	// the trace is single-threaded).
	Directory DirectoryStats
	// Hybrid holds partition statistics when Config.Hybrid is set.
	Hybrid *HybridStats
	// DRAMWait is the per-request DRAM queue-latency distribution of this
	// run (nil when Config.Memory replaces the default DRAM model). Run
	// manifests report its quantile summary per design point.
	DRAMWait *telemetry.HistogramSnapshot
	// Timeline is the epoch-sampled series of this run (nil without
	// Config.Timeline): per-epoch LLC/DRAM/wear/fault deltas over retired
	// instructions. Phases() condenses it to a phase summary.
	Timeline *telemetry.TimelineSnapshot
	// WearHeatmap is the per-set writes×accesses grid (nil unless both
	// Config.Timeline and Config.TrackWear are set).
	WearHeatmap *telemetry.Heatmap
	// ClockGHz is the core frequency the run was configured with
	// (Config.Core.ClockGHz), recorded so IPC is computed against the
	// clock that actually ran rather than a hardcoded default.
	ClockGHz float64
	// Estimated is always false: every Result is simulated, and no code
	// path sets it. The field stays because it is part of every Result's
	// JSON encoding, so removing it would move the Result and engine
	// golden digests and the disk-cache payload format.
	Estimated bool
}

// Seconds returns execution time in seconds.
func (r *Result) Seconds() float64 { return r.TimeNS * 1e-9 }

// LLCEnergyJ is total LLC energy: dynamic plus leakage.
func (r *Result) LLCEnergyJ() float64 { return r.LLCDynamicJ + r.LLCLeakageJ }

// EDP is the LLC energy-delay product (J·s).
func (r *Result) EDP() float64 { return r.LLCEnergyJ() * r.Seconds() }

// ED2P is the LLC energy-delay-squared product (J·s²), the paper's primary
// combined metric.
func (r *Result) ED2P() float64 { return r.LLCEnergyJ() * r.Seconds() * r.Seconds() }

// LLCMPKI is LLC misses per thousand instructions (Table V's metric).
func (r *Result) LLCMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.LLC.Misses) / float64(r.Instructions) * 1000
}

// IPC is aggregate instructions per cycle at the run's configured core
// clock (Result.ClockGHz). Hand-built Results that predate the ClockGHz
// field fall back to the 2.66 GHz Gainestown default.
func (r *Result) IPC() float64 {
	if r.TimeNS == 0 {
		return 0
	}
	ghz := r.ClockGHz
	if ghz == 0 {
		ghz = 2.66
	}
	return float64(r.Instructions) / (r.TimeNS * ghz)
}

// coreState bundles one core's private caches with its share of the
// trace.
type coreState struct {
	idx int
	// core is this core's clock in the first timing backend, which orders
	// the scheduler. Only a multi-threaded run's order depends on it, and
	// such a run has one backend.
	core     *cpu.Core
	l1i, l1d *cache.Cache
	l2       *cache.Cache
	// line..kind are the core's current pre-decoded segment (SoA lane
	// views — see predecode.go): one chunk's per-thread window. pos
	// indexes into them.
	line []uint64
	l1b  []int32
	l2b  []int32
	llcb []int32
	kind []trace.Kind
	pos  int
	// cur is the ring slot backing the current segment views; segs
	// queues decoded segments delivered but not yet consumed.
	cur  *ringSlot
	segs segQueue
	// streamLeft is the number of accesses this core has not yet
	// consumed (including ones not yet generated).
	streamLeft int64
	// instrPerAccess is the instruction gap represented by each access;
	// instrCarry accumulates the fractional remainder.
	instrPerAccess float64
	instrCarry     float64
	instrBudget    uint64
	instrRetired   uint64
}

// simulator is one functional walk and the timing backends it drives.
// cfg is the first backend's config; the walk reads only its functional
// fields, which every backend's config shares (Config.SameMachine).
type simulator struct {
	cfg       Config
	blockBits uint
	cores     []*coreState
	llc       *cache.Cache
	tims      []timing
	stats     LLCStats
	wear      *WearTracker
	faults    *fault.Injector
	bypass    *deadBlockPredictor
	dir       *directory
	hybrid    *hybridLLC
	// sampler drives epoch-boundary timeline sampling (nil unless
	// Config.Timeline is set: one nil check per access when disabled).
	sampler *epochSampler
	// setAccs counts LLC demand accesses per set for the wear heatmap
	// (nil unless the sampler and wear tracking are both on).
	setAccs []uint64
	// liveRetries..liveCapacity mirror fault events into the registry as
	// they happen, so /metrics shows degradation mid-run instead of only
	// at publication (all nil without telemetry or faults; counter and
	// gauge methods are nil-safe regardless).
	liveRetries     *telemetry.Counter
	liveCondemned   *telemetry.Counter
	liveLinesLost   *telemetry.Counter
	liveDeadSets    *telemetry.Counter
	liveDeadTraffic *telemetry.Counter
	liveCapacity    *telemetry.Gauge
}

// Scratch holds reusable per-run buffers for the trace pipeline and the
// tag stores: the cache arena every level's tags/meta/rank arrays are
// carved from, and the streaming ring's chunk buffers and per-core
// queues. The zero value is ready to use; after the first run the
// buffers are retained, making repeated simulations allocation-free on
// these paths. A Scratch must not be shared by concurrent simulations —
// the engine keeps one per worker for its whole lifetime. Each run sizes
// what it uses to its own machine (the arena to its tag stores, the
// directory to its cores' L2s), so a small run after a large one on the
// same Scratch clears and probes only its own share of the storage.
type Scratch struct {
	// sharers recycles the coherence directory's hash-table storage, so
	// repeated multi-threaded runs skip the grow-and-rehash ramp.
	sharers linetab.Table
	// arena recycles every cache level's tag-store storage (several MB
	// per 64-core run when allocated fresh).
	arena cache.Arena
	// slots are the streaming ring's chunk slots (raw buffer + decoded
	// lanes); spills recycle the overflow slots evacuation creates when a
	// skewed schedule outruns the ring; segq recycles the per-core
	// segment-FIFO storage.
	slots  []*ringSlot
	spills []*ringSlot
	segq   [][]*ringSlot
	// wearLines and wearSets recycle the WearTracker's per-line table and
	// per-set slice; setAccs recycles the timeline sampler's per-set
	// access counters. All are handed to the run at construction and
	// returned by releaseScratch.
	wearLines linetab.Table
	wearSets  []uint64
	setAccs   []uint64
	// faults recycles the fault injector: construction draws and sorts
	// every cell's endurance threshold (milliseconds for an 8K-set LLC),
	// so repeated fault-enabled runs of the same design point Reset the
	// pooled injector instead. A run whose fault config or geometry
	// differs just builds a fresh one.
	faults *fault.Injector
	// prof holds the reuse-distance profiler's buffers (line lanes,
	// Fenwick tree, last-touch table, filter tag stores), so the
	// engine's scratch pool covers profile jobs with the same recycling
	// the simulator gets.
	prof profile.Scratch
}

// ProfileScratch exposes the embedded reuse-distance profiler scratch
// for engine profile jobs. The same no-concurrent-use rule applies.
func (s *Scratch) ProfileScratch() *profile.Scratch { return &s.prof }

// Run simulates a materialized trace on the configured machine by
// streaming it through RunStream. The context is checked periodically
// inside the simulation loop, so cancelling it aborts even a
// multi-million-access run in bounded time with ctx.Err().
func Run(ctx context.Context, cfg Config, tr *trace.Trace) (*Result, error) {
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		return nil, err
	}
	return RunStream(ctx, cfg, src)
}

// newSimulator builds the functional machine — LLC or hybrid, wear,
// bypass and coherence structures, meta.Threads cores with private caches
// — and one timing backend per config, without wiring any access stream:
// runStreamChunked supplies that. Every config must share cfgs[0]'s
// functional fields (RunStreamGroup checks). Cache tag stores are carved
// from the scratch's arena, so repeated runs recycle their storage.
func newSimulator(cfgs []Config, meta trace.Meta, scratch *Scratch) (*simulator, error) {
	cfg := cfgs[0]
	threads := meta.Threads
	blockBits := uint(0)
	if cfg.BlockBytes > 0 {
		blockBits = uint(bits.TrailingZeros64(uint64(cfg.BlockBytes)))
	}
	llcCfg, l1iCfg, l1dCfg, l2Cfg := cfg.levels()
	// Size the arena to exactly this machine's tag stores.
	var need cache.Need
	if cfg.Hybrid == nil {
		need.Add(llcCfg, 1)
	}
	need.Add(l1iCfg, threads)
	need.Add(l1dCfg, threads)
	need.Add(l2Cfg, threads)
	arena := &scratch.arena
	arena.Reset(need)
	var llc *cache.Cache
	var hybrid *hybridLLC
	if cfg.Hybrid != nil {
		var err error
		hybrid, err = newHybridLLC(cfg.Hybrid, cfg.BlockBytes, cfg.LLCWays)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		llc, err = cache.NewIn(arena, llcCfg)
		if err != nil {
			return nil, err
		}
	}
	sim := &simulator{
		cfg:       cfg,
		blockBits: blockBits,
		llc:       llc,
		hybrid:    hybrid,
		tims:      make([]timing, len(cfgs)),
	}
	for i, c := range cfgs {
		var err error
		if sim.tims[i], err = newTiming(c, threads); err != nil {
			return nil, err
		}
	}
	if cfg.TrackWear {
		sim.wear = newWearTracker(llc.Sets(), cfg.LLCWays, meta.Accesses, scratch)
	}
	if cfg.Timeline != nil && sim.wear != nil {
		// Per-set access counts feed the wear heatmap's second column;
		// the slice is recycled through the scratch like the tracker's.
		sets := llc.Sets()
		if cap(scratch.setAccs) < sets {
			sim.setAccs = make([]uint64, sets)
		} else {
			sim.setAccs = scratch.setAccs[:sets]
			clear(sim.setAccs)
		}
		scratch.setAccs = nil
	}
	if cfg.Fault.Enabled() {
		inj := scratch.faults
		scratch.faults = nil
		if inj != nil && inj.Matches(cfg.Fault, llc.Sets(), cfg.LLCWays) {
			inj.Reset()
		} else {
			var err error
			inj, err = fault.New(cfg.Fault, llc.Sets(), cfg.LLCWays)
			if err != nil {
				return nil, err
			}
		}
		sim.faults = inj
		// Mirror pre-aged condemnations into the tag store so the run
		// starts at the aged capacity (only pre-aging can have disabled
		// ways at construction).
		if cfg.Fault.PreWearWrites > 0 {
			for set := 0; set < llc.Sets(); set++ {
				for i := inj.DisabledWays(set); i > 0; i-- {
					llc.DisableWay(set)
				}
			}
		}
		if reg := cfg.Telemetry; reg != nil {
			// Live degradation telemetry: resolve the instruments once and
			// move them at the fault events themselves, so /metrics shows
			// the array dying mid-run instead of only at publication.
			sim.liveRetries = reg.Counter("system_llc_fault_write_retries_total")
			sim.liveCondemned = reg.Counter("system_llc_fault_condemned_ways_total")
			sim.liveLinesLost = reg.Counter("system_llc_fault_lines_lost_total")
			sim.liveDeadSets = reg.Counter("system_llc_fault_dead_sets_total")
			sim.liveDeadTraffic = reg.Counter("system_llc_fault_dead_set_accesses_total")
			sim.liveCapacity = reg.Gauge("system_llc_capacity_fraction")
			fs := inj.Stats()
			sim.liveCondemned.Add(uint64(fs.InitialDisabledWays))
			sim.liveDeadSets.Add(uint64(fs.DeadSets))
			sim.liveCapacity.Set(fs.CapacityFraction())
		}
	}
	if cfg.LLCBypass == BypassDeadBlock {
		sim.bypass = newDeadBlockPredictor()
	}
	if !cfg.DisableCoherence && threads > 1 {
		// Take over the scratch's recycled table storage (returned by
		// releaseScratch once the run completes), viewed at this
		// machine's size: at most every core's L2 full of distinct lines
		// (L2 is inclusive of L1), and never more lines than the trace
		// has accesses.
		lines := min(int64(threads)*(cfg.L2Bytes/int64(max(cfg.BlockBytes, 1))), meta.Accesses)
		sim.dir = newDirectoryWith(scratch.sharers, int(lines))
		scratch.sharers = linetab.Table{}
	}
	for t := 0; t < threads; t++ {
		l1i, err := cache.NewIn(arena, l1iCfg)
		if err != nil {
			return nil, err
		}
		l1d, err := cache.NewIn(arena, l1dCfg)
		if err != nil {
			return nil, err
		}
		l2, err := cache.NewIn(arena, l2Cfg)
		if err != nil {
			return nil, err
		}
		sim.cores = append(sim.cores, &coreState{
			idx:  t,
			core: &sim.tims[0].cores[t],
			l1i:  l1i, l1d: l1d, l2: l2,
		})
	}
	return sim, nil
}

// spreadBudgets distributes the trace's instruction count over the
// threads, the remainder across the first ones, so retired instructions
// sum exactly to instrCount. perThread[t] is thread t's total access
// count — the whole-trace knowledge the per-access pacing divides by,
// known up front from the source's Meta.
func (s *simulator) spreadBudgets(instrCount uint64, perThread []int64) {
	threads := uint64(len(s.cores))
	instrPerThread := instrCount / threads
	instrRemainder := instrCount % threads
	for t, cs := range s.cores {
		budget := instrPerThread
		if uint64(t) < instrRemainder {
			budget++
		}
		cs.instrBudget = budget
		if n := perThread[t]; n > 0 {
			cs.instrPerAccess = float64(budget) / float64(n)
		}
	}
	if s.cfg.Timeline != nil {
		// This is the one place the sampler learns the run's length.
		s.sampler = newEpochSampler(s.cfg.Timeline, instrCount)
	}
}

// releaseScratch returns the simulator's recycled storage — directory
// and wear-tracker tables, per-set write and access counters — to the
// scratch for the next run.
func (s *simulator) releaseScratch(scratch *Scratch) {
	if s.dir != nil {
		scratch.sharers = s.dir.sharers
	}
	if s.wear != nil {
		scratch.wearLines = s.wear.lineWrites
		scratch.wearSets = s.wear.setWrites[:0]
	}
	if s.setAccs != nil {
		scratch.setAccs = s.setAccs[:0]
	}
	if s.faults != nil {
		scratch.faults = s.faults
	}
}

// cancelCheckInterval is how many accesses the simulation loop executes
// between context checks: frequent enough that cancellation lands within
// microseconds, rare enough to stay invisible in the hot loop.
const cancelCheckInterval = 4096

// retireRemainder retires any instruction remainder so totals match the
// trace.
func (s *simulator) retireRemainder() {
	for _, cs := range s.cores {
		if cs.instrRetired < cs.instrBudget {
			rem := cs.instrBudget - cs.instrRetired
			for i := range s.tims {
				s.tims[i].cores[cs.idx].Retire(rem)
			}
			cs.instrRetired += rem
			if s.sampler != nil {
				// Credit the catch-up so the final flush ends at the
				// trace's exact instruction count.
				s.sampler.instr += rem
			}
		}
	}
}

// step executes one access on the given core. Every backend retires the
// access's instructions on its own clock, which sets the time the
// access's memory events start at (timing.at). The access's line address
// and per-level set bases come pre-decoded from the SoA lanes
// (predecode.go) instead of being recomputed here.
func (s *simulator) step(cs *coreState) {
	i := cs.pos
	cs.pos++

	// Advance the pipeline over the instructions this access represents.
	cs.instrCarry += cs.instrPerAccess
	n := uint64(cs.instrCarry)
	if max := cs.instrBudget - cs.instrRetired; n > max {
		n = max
	}
	cs.instrCarry -= float64(n)
	cs.instrRetired += n
	for j := range s.tims {
		t := &s.tims[j]
		c := &t.cores[cs.idx]
		c.Retire(n)
		t.at = c.TimeNS()
	}

	line := cs.line[i]
	switch cs.kind[i] {
	case trace.Read:
		s.load(cs, line, cs.l1b[i], cs.l2b[i], cs.llcb[i])
	case trace.Ifetch:
		s.ifetch(cs, line, cs.l1b[i], cs.l2b[i], cs.llcb[i])
	case trace.Write:
		s.store(cs, line, cs.l1b[i], cs.l2b[i], cs.llcb[i])
	}
	if es := s.sampler; es != nil {
		// After the access's events so an epoch boundary includes them.
		// One nil check is the entire disabled cost, and the boundary
		// test is hand-inlined so the enabled cost is an add and a
		// compare per access; perfbench's system.sampling_overhead_pct
		// measures the enabled cost.
		es.instr += n
		if es.instr >= es.next {
			es.boundary(s)
		}
	}
}

// load walks a demand read down the hierarchy, stalling the core on the
// completion time of wherever it hits. l1b/l2b/llcb are the access's
// pre-decoded set bases for the demand line (eviction-path lookups for
// other lines recompute their own).
func (s *simulator) load(cs *coreState, line uint64, l1b, l2b, llcb int32) {
	if hit, ev := cs.l1d.AccessAt(l1b, line, false); hit {
		return // L1 hit time is covered by base CPI
	} else if ev.Valid && ev.Dirty {
		s.l2Writeback(cs, ev.LineAddr)
	}
	if s.dir != nil {
		s.downgradeOthers(cs, line)
	}
	s.fromL2(cs, line, true, l2b, llcb)
}

// ifetch is a load through the L1I.
func (s *simulator) ifetch(cs *coreState, line uint64, l1b, l2b, llcb int32) {
	if hit, ev := cs.l1i.AccessAt(l1b, line, false); hit {
		return
	} else if ev.Valid && ev.Dirty {
		s.l2Writeback(cs, ev.LineAddr)
	}
	s.fromL2(cs, line, true, l2b, llcb)
}

// store performs a write-back write-allocate store. Stores retire through
// the store queue and never stall the core, but their allocations and
// writebacks consume LLC energy and DRAM bandwidth.
func (s *simulator) store(cs *coreState, line uint64, l1b, l2b, llcb int32) {
	if s.dir != nil {
		// A store needs exclusive ownership: invalidate remote copies,
		// flushing any dirty one through the LLC first. The store's
		// core is then the line's only holder, so its own fill below
		// needs no directory update.
		if _, dirtyWb := s.invalidateOthers(line, cs.idx); dirtyWb > 0 {
			for i := 0; i < dirtyWb; i++ {
				s.llcWrite(line)
			}
		}
	}
	if hit, ev := cs.l1d.AccessAt(l1b, line, true); hit {
		return
	} else if ev.Valid && ev.Dirty {
		s.l2Writeback(cs, ev.LineAddr)
	}
	s.fromL2(cs, line, false, l2b, llcb)
}

// downgradeOthers handles a load miss: one probe records the reader as
// a holder of the line and returns the holders from before. Only a sole
// remote holder can hold the line dirty (see directory.go), so only its
// copies are cleaned (Modified -> Shared); a dirty one is flushed
// through the LLC, with the reader paying an intervention latency that
// advances its clock.
func (s *simulator) downgradeOthers(cs *coreState, line uint64) {
	c, ok := soleRemote(s.dir.sharers.FetchOr(line, 1<<uint(cs.idx)), cs.idx)
	if !ok {
		return
	}
	other := s.cores[c]
	_, l1Dirty := other.l1d.Clean(line)
	_, l2Dirty := other.l2.Clean(line)
	if !l1Dirty && !l2Dirty {
		return
	}
	s.llcWrite(line)
	s.dir.stats.RemoteWritebacks++
	s.dir.stats.InterventionStalls++
	// Cache-to-cache transfer via the LLC: the reader pays the LLC read
	// that picks the flushed line back up. Config.LLC is zero-valued in
	// hybrid mode, so route the latency through the hybrid partition
	// actually holding the line.
	for i := range s.tims {
		t := &s.tims[i]
		lat := t.tagNS + t.readNS
		if s.hybrid != nil {
			lat = s.hybrid.readLatencyNS(line)
		}
		t.intervene(cs.idx, lat)
	}
}

// fromL2 services an L1 miss from the L2 and below. stalls controls
// whether the core waits for the data (loads) or not (stores).
func (s *simulator) fromL2(cs *coreState, line uint64, stalls bool, l2b, llcb int32) {
	if hit, ev := cs.l2.AccessAt(l2b, line, false); hit {
		if stalls {
			for i := range s.tims {
				t := &s.tims[i]
				t.stall(cs.idx, t.l2NS)
			}
		}
		return
	} else if ev.Valid {
		// Enforce inclusion: the L2 victim leaves the L1s too; a dirty L1
		// copy folds into the writeback.
		if present, dirty := cs.l1d.Invalidate(ev.LineAddr); present && dirty {
			ev.Dirty = true
		}
		cs.l1i.Invalidate(ev.LineAddr)
		if s.dir != nil {
			s.dir.noteEvict(ev.LineAddr, cs.idx)
		}
		if ev.Dirty {
			s.llcWrite(ev.LineAddr)
		}
	}
	s.fromLLC(cs, line, stalls, llcb)
}

// fromLLC services an L2 miss at the shared LLC and, on miss, DRAM.
func (s *simulator) fromLLC(cs *coreState, line uint64, stalls bool, llcb int32) {
	if s.hybrid != nil {
		s.fromHybridLLC(cs, line, stalls)
		return
	}
	if s.setAccs != nil {
		s.setAccs[s.llc.SetOf(line)]++
	}
	// Degradation: a dead set (every way wear-condemned) cannot hold the
	// line at all — the demand access misses and is served straight from
	// DRAM, mirroring the dead-block bypass path below.
	if s.faults != nil && s.faults.IsDead(line) {
		s.faults.NoteDeadAccess()
		s.liveDeadTraffic.Inc()
		s.stats.Misses++
		s.readAroundLLC(cs, line, stalls)
		return
	}
	// Dead-block bypass: a line predicted dead skips the NVM fill and is
	// served straight from DRAM (tag probe energy still counts as a miss).
	if s.bypass != nil && s.bypass.predictDead(line) && !s.llc.Probe(line) {
		s.stats.Misses++
		s.stats.BypassedFills++
		s.readAroundLLC(cs, line, stalls)
		return
	}
	hit, ev := s.llc.AccessAt(llcb, line, false)
	if hit {
		s.stats.Hits++
		if s.bypass != nil {
			s.bypass.onHit(line)
		}
		for i := range s.tims {
			s.tims[i].llcHit(cs.idx, line, stalls)
		}
		return
	}
	// Miss: tag lookup energy, then DRAM, then the fill writes the LLC.
	// With contention modeled, the tag probe waits for the bank (reads
	// queue behind in-flight slow writes).
	s.stats.Misses++
	if s.bypass != nil {
		s.bypass.onFill(line)
		if ev.Valid {
			s.bypass.onEvict(ev.LineAddr)
		}
	}
	for i := range s.tims {
		s.tims[i].llcMiss(cs.idx, line, stalls, ev)
	}
	s.llcFillWrite(line)
}

// readAroundLLC serves a demand miss straight from main memory after the
// LLC tag probe, without filling the array.
func (s *simulator) readAroundLLC(cs *coreState, line uint64, stalls bool) {
	for i := range s.tims {
		t := &s.tims[i]
		t.memRead(cs.idx, line, t.tagNS, stalls)
	}
}

// fromHybridLLC services an L2 miss at the hybrid SRAM/NVM LLC.
func (s *simulator) fromHybridLLC(cs *coreState, line uint64, stalls bool) {
	hit, lat := s.hybrid.lookup(line)
	if hit {
		s.stats.Hits++
		if stalls {
			for i := range s.tims {
				s.tims[i].stall(cs.idx, lat)
			}
		}
		return
	}
	s.stats.Misses++
	for i := range s.tims {
		s.tims[i].memRead(cs.idx, line, lat, stalls)
	}
	s.stats.Writes++
	for _, wb := range s.hybrid.fill(line, !stalls) {
		s.memWrite(wb)
	}
}

// l2Writeback propagates an L1 dirty eviction into the L2; a dirty L2
// victim continues to the LLC as a write.
func (s *simulator) l2Writeback(cs *coreState, line uint64) {
	if present, ev := cs.l2.WritebackTo(line); !present && ev.Valid && ev.Dirty {
		s.llcWrite(ev.LineAddr)
	}
}

// memWrite posts a write of line to every backend's main memory.
func (s *simulator) memWrite(line uint64) {
	for i := range s.tims {
		t := &s.tims[i]
		t.mem.Write(t.at, line)
	}
}

// occupyBank holds line's LLC bank for one array write in every backend.
func (s *simulator) occupyBank(line uint64) {
	for i := range s.tims {
		s.tims[i].occupyBank(line)
	}
}

// llcWrite is a writeback arriving at the LLC from an L2 (equation (8)
// energy; off the critical path).
func (s *simulator) llcWrite(line uint64) {
	if s.hybrid != nil {
		s.stats.Writes++
		for _, wb := range s.hybrid.writeback(line) {
			s.memWrite(wb)
		}
		return
	}
	// Degradation: a dead set takes no array writes — the dirty data
	// routes straight to DRAM so nothing is lost.
	if s.faults != nil && s.faults.IsDead(line) {
		s.faults.NoteDeadWrite()
		s.liveDeadTraffic.Inc()
		s.memWrite(line)
		return
	}
	// Dead-block bypass: writebacks of dead lines go straight to DRAM,
	// avoiding the expensive NVM data-array write.
	if s.bypass != nil && s.bypass.predictDead(line) && !s.llc.Probe(line) {
		s.stats.BypassedWritebacks++
		s.memWrite(line)
		return
	}
	s.stats.Writes++
	if s.wear != nil {
		s.wear.Record(line)
	}
	// A writeback does not count as reuse for the dead-block predictor:
	// only demand hits mark a line alive (the dead-write distinction of
	// the write-minimization literature).
	present, ev := s.llc.WritebackTo(line)
	if s.bypass != nil && !present {
		s.bypass.onFill(line)
		if ev.Valid {
			s.bypass.onEvict(ev.LineAddr)
		}
	}
	if ev.Valid && ev.Dirty {
		s.memWrite(ev.LineAddr)
	}
	s.occupyBank(line)
	if s.faults != nil {
		s.applyFault(line)
	}
}

// applyFault runs the wear-driven fault process for one LLC data-array
// write (internal/fault). Retries occupy the line's bank like any other
// write — energy is charged in result(), latency stays off the critical
// path. A condemned write loses the line just written: it is invalidated
// (dirty data routes to DRAM so correctness is preserved) and its way is
// disabled, shrinking the set's associativity.
func (s *simulator) applyFault(line uint64) {
	out := s.faults.OnWrite(line)
	for i := 0; i < out.Retries; i++ {
		s.occupyBank(line)
	}
	if out.Retries > 0 {
		s.liveRetries.Add(uint64(out.Retries))
	}
	if !out.Condemned {
		return
	}
	// Condemnations are rare (at most sets×ways per run), so refreshing
	// the capacity gauge from a fresh stats copy stays off the hot path.
	s.liveCondemned.Inc()
	s.liveLinesLost.Inc()
	if s.liveCapacity != nil {
		fs := s.faults.Stats()
		s.liveCapacity.Set(fs.CapacityFraction())
		if s.faults.IsDead(line) {
			s.liveDeadSets.Inc()
		}
	}
	if present, dirty := s.llc.Invalidate(line); present {
		if dirty {
			s.memWrite(line)
		}
		if s.bypass != nil {
			s.bypass.onEvict(line)
		}
	}
	s.llc.DisableWay(s.llc.SetOf(line))
}

// llcFillWrite is the data-array write of a fill after a DRAM fetch, at
// the fetch's completion. The line was already allocated by the demand
// Access; only energy and bank occupancy are modeled here.
func (s *simulator) llcFillWrite(line uint64) {
	s.stats.Writes++
	if s.wear != nil {
		s.wear.Record(line)
	}
	s.occupyBank(line)
	if s.faults != nil {
		s.applyFault(line)
	}
}

// results assembles one Result per backend: the functional fields once,
// then each backend's clocks, traffic and energy.
func (s *simulator) results(name string) []*Result {
	base := Result{
		Workload: name,
		LLC:      s.stats,
	}
	if s.dir != nil {
		base.Directory = s.dir.stats
	}
	for _, cs := range s.cores {
		base.L1I.Add(cs.l1i.Stats())
		base.L1D.Add(cs.l1d.Stats())
		base.L2.Add(cs.l2.Stats())
	}
	var wear *WearStats
	if s.wear != nil {
		ws := s.wear.Stats()
		wear = &ws
	}
	if s.faults != nil {
		fs := s.faults.Stats()
		base.Degradation = &fs
	}
	if s.hybrid != nil {
		hs := s.hybrid.stats
		base.Hybrid = &hs
	}
	if s.sampler != nil {
		s.sampler.flush(s)
		snap := s.sampler.tl.Snapshot()
		base.Timeline = &snap
		if s.wear != nil {
			base.WearHeatmap = buildWearHeatmap(s.wear, s.setAccs)
		}
	}
	out := make([]*Result, len(s.tims))
	for i := range s.tims {
		r := base
		if wear != nil {
			// Each Result owns its wear record, so callers may annotate
			// one member of a group without touching the others.
			ws := *wear
			r.Wear = &ws
		}
		out[i] = s.tims[i].result(s, &r)
	}
	return out
}
