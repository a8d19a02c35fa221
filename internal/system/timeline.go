package system

// Time-resolved sampling: the simulator's whole-run aggregates (LLC
// events, DRAM wait, wear, fault outcomes) sliced into fixed
// instruction epochs. The paper's premise is that modern use cases are
// *phased* — write pressure varies over execution — and a single
// end-of-run number hides exactly the bursts that dominate NVM wear.
// The sampler hangs off the scheduler hot loop as one nil check per
// access when disabled and a counter compare when enabled; epoch
// boundaries emit one point of per-epoch deltas into a
// telemetry.Timeline, whose pair-merge compaction bounds memory at
// O(Points) for arbitrarily long runs.

import (
	"fmt"

	"nvmllc/internal/telemetry"
)

// DefaultTimelinePoints is the default Timeline point budget: enough
// resolution to see phases, small enough that a Result stays cheap to
// copy and encode.
const DefaultTimelinePoints = 256

// TimelineConfig enables time-resolved sampling of a run. Like
// Config.Telemetry it never alters simulation behavior, but unlike a
// registry it adds data to the Result (Timeline, WearHeatmap), so the
// engine's cache key includes it with the point budget resolved: a job
// with a timeline is its own design point, and {} and
// {Points: DefaultTimelinePoints} are the same one.
type TimelineConfig struct {
	// EpochInstructions is the epoch length in retired instructions.
	// Zero derives trace_instructions/Points, so any run fills the point
	// budget about once regardless of length.
	EpochInstructions uint64
	// Points bounds the number of retained epochs (the telemetry.Timeline
	// budget). Zero means DefaultTimelinePoints.
	Points int
}

// Validate checks the sampling parameters. Nil-safe (nil = disabled).
func (c *TimelineConfig) Validate() error {
	if c == nil {
		return nil
	}
	if c.Points < 0 {
		return fmt.Errorf("system: timeline points = %d, want ≥ 0", c.Points)
	}
	return nil
}

// points resolves the configured point budget.
func (c *TimelineConfig) points() int {
	if c.Points > 0 {
		return c.Points
	}
	return DefaultTimelinePoints
}

// Timeline field names, one per sampled series. All are per-epoch
// deltas except TimelineCapacity, an instantaneous level.
const (
	// TimelineLLCHits/Misses/Writes are the LLC demand hits, demand
	// misses and array writes (fills + writebacks) in the epoch.
	TimelineLLCHits   = "llc_hits"
	TimelineLLCMisses = "llc_misses"
	TimelineLLCWrites = "llc_writes"
	// TimelineDRAMReqs and TimelineDRAMWaitNS are the epoch's DRAM
	// request count and summed queueing delay (default memory model only).
	TimelineDRAMReqs   = "dram_reqs"
	TimelineDRAMWaitNS = "dram_wait_ns"
	// TimelineWearWrites is the epoch's wear-tracked LLC array writes
	// (zero without Config.TrackWear).
	TimelineWearWrites = "wear_writes"
	// TimelineFaultRetries and TimelineFaultCondemned are the epoch's
	// write-verify retries and condemned ways (zero without faults).
	TimelineFaultRetries   = "fault_retries"
	TimelineFaultCondemned = "fault_condemned"
	// TimelineCapacity is the surviving LLC capacity fraction at the
	// epoch's end (1.0 without faults).
	TimelineCapacity = "capacity_fraction"
)

// timelineFields is the fixed schema of a system timeline, in the order
// the sampler fills its value buffer.
func timelineFields() []telemetry.TimelineField {
	return []telemetry.TimelineField{
		telemetry.DeltaField(TimelineLLCHits),
		telemetry.DeltaField(TimelineLLCMisses),
		telemetry.DeltaField(TimelineLLCWrites),
		telemetry.DeltaField(TimelineDRAMReqs),
		telemetry.DeltaField(TimelineDRAMWaitNS),
		telemetry.DeltaField(TimelineWearWrites),
		telemetry.DeltaField(TimelineFaultRetries),
		telemetry.DeltaField(TimelineFaultCondemned),
		telemetry.LevelField(TimelineCapacity),
	}
}

// epochSampler drives the instruction-epoch clock and cuts per-epoch
// deltas out of the simulator's cumulative counters. Owned by a single
// simulation; only the Timeline it feeds is concurrency-safe.
type epochSampler struct {
	tl    *telemetry.Timeline
	epoch uint64 // epoch length in instructions
	next  uint64 // boundary that triggers the next sample
	instr uint64 // instructions retired so far (all cores)
	last  uint64 // instr at the previous sample

	// Previous cumulative values, subtracted to form epoch deltas.
	prevHits, prevMisses, prevWrites uint64
	prevDRAMReqs                     uint64
	prevDRAMWaitNS                   float64
	prevWear                         uint64
	prevRetries                      uint64
	prevCondemned                    int

	vals [9]float64 // scratch, one slot per timelineFields entry
}

// newEpochSampler sizes the sampler for a run of instrCount
// instructions. A zero-instruction trace degenerates to epoch 1 and
// simply never samples.
func newEpochSampler(cfg *TimelineConfig, instrCount uint64) *epochSampler {
	points := cfg.points()
	epoch := cfg.EpochInstructions
	if epoch == 0 {
		epoch = instrCount / uint64(points)
	}
	if epoch == 0 {
		epoch = 1
	}
	return &epochSampler{
		tl:    telemetry.NewTimeline(points, "instructions", timelineFields()...),
		epoch: epoch,
		next:  epoch,
	}
}

// boundary samples the crossed epoch and advances the next threshold
// past the current instruction clock (several epochs at once when one
// access retires more than an epoch's worth of instructions).
func (es *epochSampler) boundary(s *simulator) {
	es.sample(s)
	for es.next <= es.instr {
		es.next += es.epoch
	}
}

// flush emits the final partial epoch (retireRemainder's catch-up
// included), so every delta series telescopes to the run totals.
func (es *epochSampler) flush(s *simulator) {
	if es.instr > es.last {
		es.sample(s)
	}
}

// sample appends one epoch point: deltas of every cumulative quantity
// since the previous sample, plus the instantaneous capacity level.
// Reads only cheap accessors (no allocation — the streaming allocation
// gate runs with sampling enabled).
func (es *epochSampler) sample(s *simulator) {
	hits, misses, writes := s.stats.Hits, s.stats.Misses, s.stats.Writes
	es.vals[0] = float64(hits - es.prevHits)
	es.vals[1] = float64(misses - es.prevMisses)
	es.vals[2] = float64(writes - es.prevWrites)
	es.prevHits, es.prevMisses, es.prevWrites = hits, misses, writes

	var dramReqs uint64
	var dramWait float64
	if w := s.tims[0].dramWait; w != nil {
		dramReqs = w.Count()
		dramWait = w.Sum()
	}
	es.vals[3] = float64(dramReqs - es.prevDRAMReqs)
	es.vals[4] = dramWait - es.prevDRAMWaitNS
	es.prevDRAMReqs, es.prevDRAMWaitNS = dramReqs, dramWait

	var wear uint64
	if s.wear != nil {
		wear = s.wear.total
	}
	es.vals[5] = float64(wear - es.prevWear)
	es.prevWear = wear

	var retries uint64
	var condemned int
	capacity := 1.0
	if s.faults != nil {
		fs := s.faults.Stats()
		retries = fs.WriteRetries
		condemned = fs.CondemnedWays
		capacity = fs.CapacityFraction()
	}
	es.vals[6] = float64(retries - es.prevRetries)
	es.vals[7] = float64(condemned - es.prevCondemned)
	es.prevRetries, es.prevCondemned = retries, condemned
	es.vals[8] = capacity

	es.tl.Append(es.instr, es.vals[:]...)
	es.last = es.instr
}

// PhaseStats is the phase summary a timeline condenses to: how bursty
// the write traffic is and how far the peak epoch's wear sits above the
// mean — the quantity wear-leveling headroom actually depends on.
type PhaseStats struct {
	// Epochs is the number of retained timeline points.
	Epochs int
	// WriteRateCoV is the coefficient of variation of the per-epoch LLC
	// write rate (0 = perfectly steady traffic).
	WriteRateCoV float64
	// PeakToMeanWrites is the peak epoch's LLC write rate over the mean.
	PeakToMeanWrites float64
	// PeakToMeanWear is the same ratio for wear-tracked array writes;
	// falls back to PeakToMeanWrites when wear tracking was off.
	PeakToMeanWear float64
	// MPKIMin/MPKIMax bound the per-epoch LLC MPKI across phases.
	MPKIMin, MPKIMax float64
}

// Phases derives the phase summary from the run's timeline; nil when
// the run was not sampled or produced no epochs.
func (r *Result) Phases() *PhaseStats {
	s := r.Timeline
	if s == nil || s.Len() == 0 {
		return nil
	}
	ps := &PhaseStats{
		Epochs:           s.Len(),
		WriteRateCoV:     s.RateCoV(TimelineLLCWrites),
		PeakToMeanWrites: s.RatePeakToMean(TimelineLLCWrites),
		PeakToMeanWear:   s.RatePeakToMean(TimelineWearWrites),
	}
	if ps.PeakToMeanWear == 0 {
		ps.PeakToMeanWear = ps.PeakToMeanWrites
	}
	misses := s.SeriesOf(TimelineLLCMisses)
	if misses == nil {
		return ps
	}
	prev := uint64(0)
	first := true
	for i, x := range s.X {
		width := float64(x - prev)
		prev = x
		if width <= 0 {
			// A zero-width epoch has no defined rate; skipping it must
			// not leave MPKIMin stuck at the zero value (the bounds are
			// seeded by the first *valid* epoch, not by index 0).
			continue
		}
		mpki := misses[i] / width * 1000
		if first || mpki < ps.MPKIMin {
			ps.MPKIMin = mpki
		}
		if first || mpki > ps.MPKIMax {
			ps.MPKIMax = mpki
		}
		first = false
	}
	return ps
}

// buildWearHeatmap assembles the per-set sets×{writes, accesses} grid
// from the wear tracker's per-set write counts and the sampler-gated
// per-set access counts.
func buildWearHeatmap(wear *WearTracker, setAccs []uint64) *telemetry.Heatmap {
	h := telemetry.NewHeatmap(len(wear.setWrites), "set", "writes", "accesses")
	for set, w := range wear.setWrites {
		h.Set(set, 0, float64(w))
	}
	for set, a := range setAccs {
		h.Set(set, 1, float64(a))
	}
	return h
}
