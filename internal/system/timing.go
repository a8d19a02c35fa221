package system

// Timing backends. The simulator splits into functional state — trace
// streaming, instruction pacing, the scheduler, the L1/L2/LLC tag
// stores, LLCStats, the directory and the wear tracker — and one timing
// backend per design point: the per-thread core clocks, main memory and
// its wait histogram, the LLC bank state, and the LLC model's latencies
// and energies. The functional walk decides what happens (hit, miss,
// eviction, writeback); every backend then prices that event on its own
// clocks. A single-threaded walk never reads a clock, so one walk can
// drive several backends whose configs differ only in timing-only fields
// (Config.SameMachine) — RunStreamGroup. A multi-threaded walk's core
// order follows the clocks, so it always runs one backend.

import (
	"fmt"
	"math"
	"strconv"

	"nvmllc/internal/cache"
	"nvmllc/internal/cpu"
	"nvmllc/internal/dram"
	"nvmllc/internal/telemetry"
)

// timing is one design point's timing backend.
type timing struct {
	// cores are the per-thread clocks, indexed like simulator.cores.
	cores []cpu.Core
	// at is when the access being walked reaches its next memory event:
	// the stepping core's clock after retirement (advanced by a coherence
	// intervention), then, once a demand miss has read main memory, that
	// read's completion (a fill writes the LLC when its data arrives).
	at float64
	// l2NS, tagNS, readNS and writeNS (array write occupancy) are cfg's
	// L2 and LLC latencies, and contention is cfg.ModelWriteContention,
	// kept beside the clocks for the per-event paths.
	l2NS, tagNS, readNS, writeNS float64
	contention                   bool
	cfg                          Config
	mem                          MainMemory
	dramMem                      *dram.Memory // non-nil when the default model is in use
	// dramWait collects per-request DRAM queueing delay (always on with
	// the default memory model; its snapshot lands in Result.DRAMWait).
	// Only the simulating goroutine touches it, so it needs no atomics.
	dramWait *telemetry.LocalHistogram
	bankBusy []float64
	// bankStallNS/bankStallEvents account per-bank time reads and writes
	// spent queued behind busy LLC banks (write-contention mode only).
	bankStallNS     []float64
	bankStallEvents []uint64
}

// newTiming builds cfg's backend for a run of threads cores.
func newTiming(cfg Config, threads int) (timing, error) {
	t := timing{
		cores:           make([]cpu.Core, threads),
		l2NS:            cfg.L2LatencyNS,
		tagNS:           cfg.LLC.TagLatencyNS,
		readNS:          cfg.LLC.ReadLatencyNS,
		writeNS:         cfg.LLC.WriteLatencyNS(),
		contention:      cfg.ModelWriteContention,
		cfg:             cfg,
		bankBusy:        make([]float64, cfg.LLCBanks),
		bankStallNS:     make([]float64, cfg.LLCBanks),
		bankStallEvents: make([]uint64, cfg.LLCBanks),
	}
	for i := range t.cores {
		core, err := cpu.NewCore(cfg.Core)
		if err != nil {
			return timing{}, err
		}
		t.cores[i] = *core
	}
	if cfg.Memory != nil {
		t.mem = cfg.Memory
		return t, nil
	}
	dramMem, err := dram.New(cfg.DRAM)
	if err != nil {
		return timing{}, err
	}
	t.mem, t.dramMem = dramMem, dramMem
	t.dramWait = telemetry.NewLocalHistogram(telemetry.DefaultScale())
	dramMem.SetWaitHook(t.dramWait.Observe)
	return t, nil
}

// stall charges core c a load that completes lat after the current event.
func (t *timing) stall(c int, lat float64) {
	t.cores[c].StallLoad(t.at + lat)
}

// intervene charges core c a cache-to-cache transfer of lat and moves
// the access's event time to the core's advanced clock.
func (t *timing) intervene(c int, lat float64) {
	core := &t.cores[c]
	core.StallLoad(t.at + lat)
	t.at = core.TimeNS()
}

// llcHit prices an LLC demand hit: tag and data read, queued behind the
// line's bank when write contention is modeled.
func (t *timing) llcHit(c int, line uint64, stalls bool) {
	if t.contention {
		t.llcHitContended(c, line, stalls)
	} else if stalls {
		t.cores[c].StallLoad(t.at + t.tagNS + t.readNS)
	}
}

func (t *timing) llcHitContended(c int, line uint64, stalls bool) {
	start := t.bankStart(line, t.at)
	t.setBankBusy(line, start+t.readNS)
	if stalls {
		t.cores[c].StallLoad(start + t.tagNS + t.readNS)
	}
}

// llcMiss prices an LLC demand miss: the dirty victim's writeback, the
// tag probe (queued behind the bank under contention) and the memory
// read. The fill that follows writes at the read's completion.
func (t *timing) llcMiss(c int, line uint64, stalls bool, ev cache.Eviction) {
	if ev.Valid && ev.Dirty {
		t.mem.Write(t.at, ev.LineAddr)
	}
	lookupStart := t.at
	if t.contention {
		lookupStart = t.bankStart(line, t.at)
	}
	t.at = t.mem.Read(lookupStart+t.tagNS, line)
	if stalls {
		t.cores[c].StallLoad(t.at)
	}
}

// memRead serves a demand read from main memory lat after the current
// event, without an LLC fill of the array's own (dead sets, bypassed
// fills and the hybrid LLC, whose placement writes follow at the read's
// completion).
func (t *timing) memRead(c int, line uint64, lat float64, stalls bool) {
	t.at = t.mem.Read(t.at+lat, line)
	if stalls {
		t.cores[c].StallLoad(t.at)
	}
}

// occupyBank holds the line's bank for one LLC array write (write
// contention only).
func (t *timing) occupyBank(line uint64) {
	if t.contention {
		start := t.bankStart(line, t.at)
		t.setBankBusy(line, start+t.writeNS)
	}
}

func (t *timing) bankStart(line uint64, now float64) float64 {
	b := line % uint64(len(t.bankBusy))
	start := math.Max(now, t.bankBusy[b])
	if start > now {
		t.bankStallNS[b] += start - now
		t.bankStallEvents[b]++
	}
	return start
}

func (t *timing) setBankBusy(line uint64, until float64) {
	b := line % uint64(len(t.bankBusy))
	t.bankBusy[b] = until
}

// result completes a Result whose functional fields (LLC events, private
// cache and directory statistics, wear, degradation, hybrid partitions,
// timeline) the simulator has filled, with this backend's clocks,
// traffic and energy, and publishes it into the backend's registry.
func (t *timing) result(s *simulator, r *Result) *Result {
	r.LLCName = t.cfg.LLC.Name
	r.Cores = t.cfg.Cores
	r.ClockGHz = t.cfg.Core.ClockGHz
	for i := range t.cores {
		c := &t.cores[i]
		r.TimeNS = max(r.TimeNS, c.TimeNS())
		r.Instructions += c.Instructions()
		r.MemStallNS += c.MemStallNS()
	}
	if t.dramMem != nil {
		r.DRAM = t.dramMem.Stats()
	}
	if s.hybrid != nil {
		r.LLCName = fmt.Sprintf("hybrid(%s+%s)", t.cfg.Hybrid.SRAM.Name, t.cfg.Hybrid.NVM.Name)
		r.LLCDynamicJ = s.hybrid.dynamicNJ * 1e-9
		r.LLCLeakageJ = s.hybrid.leakageW() * r.TimeNS * 1e-9
	} else {
		m := &t.cfg.LLC
		// Equations (6)-(8): nJ per event, summed, converted to joules.
		dynNJ := float64(r.LLC.Hits)*m.HitEnergyNJ +
			float64(r.LLC.Misses)*m.MissEnergyNJ +
			float64(r.LLC.Writes)*m.WriteEnergyNJ +
			// Bypassed writebacks still probe the tags.
			float64(r.LLC.BypassedWritebacks)*m.MissEnergyNJ
		if r.Degradation != nil {
			// Write-verify retries re-drive the array: one write's worth
			// of energy per extra attempt, off the critical path like
			// every other LLC write.
			dynNJ += float64(r.Degradation.WriteRetries) * m.WriteEnergyNJ
		}
		r.LLCDynamicJ = dynNJ * 1e-9
		r.LLCLeakageJ = m.LeakageW * r.TimeNS * 1e-9
	}
	if t.dramWait != nil {
		snap := t.dramWait.Snapshot()
		r.DRAMWait = &snap
	}
	t.publishTelemetry(r)
	return r
}

// publishTelemetry mirrors a completed run's measurements into the
// configured registry: per-level cache hit/miss/writeback/fill
// counters, LLC event counters, per-bank write-contention stalls and
// the DRAM traffic and queue-latency histogram. Counters accumulate
// across runs sharing a registry (one sweep = one registry), which is
// what the /metrics endpoint scrapes mid-run. Called once per design
// point when the run completes, so it costs nothing on the hot path.
func (t *timing) publishTelemetry(r *Result) {
	reg := t.cfg.Telemetry
	if reg == nil {
		return
	}
	for _, lv := range []struct {
		name string
		st   cache.Stats
	}{{"L1I", r.L1I}, {"L1D", r.L1D}, {"L2", r.L2}} {
		reg.Counter("system_cache_hits_total", "level", lv.name).Add(lv.st.Hits)
		reg.Counter("system_cache_misses_total", "level", lv.name).Add(lv.st.Misses)
		reg.Counter("system_cache_writebacks_total", "level", lv.name).Add(lv.st.Writebacks)
		reg.Counter("system_cache_fills_total", "level", lv.name).Add(lv.st.Fills)
	}
	reg.Counter("system_llc_hits_total").Add(r.LLC.Hits)
	reg.Counter("system_llc_misses_total").Add(r.LLC.Misses)
	reg.Counter("system_llc_writes_total").Add(r.LLC.Writes)
	reg.Counter("system_llc_bypassed_fills_total").Add(r.LLC.BypassedFills)
	reg.Counter("system_llc_bypassed_writebacks_total").Add(r.LLC.BypassedWritebacks)

	if t.cfg.ModelWriteContention {
		for b := range t.bankStallNS {
			bank := strconv.Itoa(b)
			reg.Counter("system_llc_bank_stall_ns_total", "bank", bank).Add(uint64(t.bankStallNS[b]))
			reg.Counter("system_llc_bank_stall_events_total", "bank", bank).Add(t.bankStallEvents[b])
		}
	}

	if t.dramMem != nil {
		reg.Counter("system_dram_reads_total").Add(r.DRAM.Reads)
		reg.Counter("system_dram_writes_total").Add(r.DRAM.Writes)
		if r.DRAMWait != nil {
			// Fold this run's private wait histogram into the shared one;
			// layouts always match (both default scale), so the error path
			// is unreachable and safe to drop.
			_ = reg.Histogram("system_dram_wait_ns").Merge(*r.DRAMWait)
		}
	}

	// Fault/degradation counters are NOT published here: they move live,
	// at the fault events themselves (newSimulator wires the instruments,
	// applyFault and the dead-set paths increment them), so /metrics
	// shows degradation during a run. Re-adding the end-of-run totals
	// would double count. The capacity gauge is likewise kept current by
	// the live path.

	reg.Histogram("system_sim_time_ns").Observe(r.TimeNS)
	reg.Histogram("system_mem_stall_ns").Observe(r.MemStallNS)
}
