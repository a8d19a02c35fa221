package system

import (
	"context"
	"math"
	"reflect"
	"testing"

	"nvmllc/internal/fault"
	"nvmllc/internal/golden"
	"nvmllc/internal/reference"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// note advances the instruction clock by one access's retirement and
// samples when a boundary is crossed: the logic the simulator's step
// hand-inlines (an add and a compare per access, no call), as a method
// the sampler's unit tests can drive.
func (es *epochSampler) note(s *simulator, retired uint64) {
	es.instr += retired
	if es.instr >= es.next {
		es.boundary(s)
	}
}

// timelineConfig is sramConfig with wear tracking and epoch sampling on.
func timelineConfig(points int) Config {
	cfg := sramConfig()
	cfg.TrackWear = true
	cfg.Timeline = &TimelineConfig{Points: points}
	return cfg
}

func TestTimelineAbsentByDefault(t *testing.T) {
	tr := streamTrace("notl", 5000, 30000, 3, 2)
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline != nil || r.WearHeatmap != nil {
		t.Error("timeline artifacts present without Config.Timeline")
	}
	if r.Phases() != nil {
		t.Error("Phases() non-nil without a timeline")
	}
}

// TestTimelineDeltasTelescope pins the artifact's core accounting
// promise: every per-epoch delta series sums exactly (not within
// epsilon — exactly, the counts are integers below 2^53) to the run's
// end-of-run totals.
func TestTimelineDeltasTelescope(t *testing.T) {
	tr := streamTrace("tl", 20000, 120000, 3, 4)
	r, err := Run(context.Background(), timelineConfig(32), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline == nil {
		t.Fatal("no timeline")
	}
	sums := map[string]float64{
		TimelineLLCHits:   float64(r.LLC.Hits),
		TimelineLLCMisses: float64(r.LLC.Misses),
		TimelineLLCWrites: float64(r.LLC.Writes),
		TimelineDRAMReqs:  float64(r.DRAM.Reads + r.DRAM.Writes),
		TimelineWearWrites: float64(func() uint64 {
			if r.Wear == nil {
				return 0
			}
			return r.Wear.TotalWrites
		}()),
	}
	for field, want := range sums {
		if got := r.Timeline.Sum(field); got != want {
			t.Errorf("Sum(%s) = %v, want exactly %v", field, got, want)
		}
	}
	if got, want := r.Timeline.Sum(TimelineDRAMWaitNS), r.DRAM.TotalWaitNS; got != want {
		t.Errorf("Sum(dram_wait_ns) = %v, want %v", got, want)
	}
	if n := r.Timeline.Len(); n == 0 || n > 32 {
		t.Errorf("timeline has %d points, want 1..32", n)
	}
	if last := r.Timeline.X[r.Timeline.Len()-1]; last != r.Instructions {
		t.Errorf("final epoch ends at %d instructions, want the run total %d", last, r.Instructions)
	}
}

func TestTimelineWearHeatmapMatchesWearStats(t *testing.T) {
	tr := streamTrace("hm", 30000, 90000, 2, 4)
	r, err := Run(context.Background(), timelineConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	hm := r.WearHeatmap
	if hm == nil {
		t.Fatal("no wear heatmap")
	}
	if r.Wear == nil {
		t.Fatal("no wear stats")
	}
	if hm.Rows != r.Wear.Sets {
		t.Errorf("heatmap rows = %d, want %d sets", hm.Rows, r.Wear.Sets)
	}
	if got, want := hm.ColSum(0), float64(r.Wear.TotalWrites); got != want {
		t.Errorf("heatmap writes column sums to %v, want %v", got, want)
	}
	if hm.ColSum(1) < float64(r.Wear.TotalWrites) {
		t.Errorf("accesses column (%v) below writes (%v)", hm.ColSum(1), r.Wear.TotalWrites)
	}
}

func TestTimelinePhases(t *testing.T) {
	tr := streamTrace("ph", 20000, 80000, 3, 4)
	r, err := Run(context.Background(), timelineConfig(16), tr)
	if err != nil {
		t.Fatal(err)
	}
	ph := r.Phases()
	if ph == nil {
		t.Fatal("no phases")
	}
	if ph.Epochs != r.Timeline.Len() {
		t.Errorf("Epochs = %d, want %d", ph.Epochs, r.Timeline.Len())
	}
	if ph.WriteRateCoV < 0 || ph.PeakToMeanWrites < 1 || ph.PeakToMeanWear < 1 {
		t.Errorf("implausible phase stats: %+v", ph)
	}
	if ph.MPKIMin > ph.MPKIMax || ph.MPKIMax <= 0 {
		t.Errorf("MPKI range %v..%v", ph.MPKIMin, ph.MPKIMax)
	}
}

// phaseSnapshot builds a synthetic Result carrying just enough timeline
// for Phases(): the X axis plus misses/writes delta series.
func phaseSnapshot(x []uint64, misses, writes []float64) *Result {
	return &Result{Timeline: &telemetry.TimelineSnapshot{
		Axis: "instructions",
		Fields: []telemetry.TimelineField{
			telemetry.DeltaField(TimelineLLCMisses),
			telemetry.DeltaField(TimelineLLCWrites),
		},
		X:      x,
		Series: [][]float64{misses, writes},
	}}
}

// TestPhasesDegenerateTimelines pins Phases() on the degenerate shapes:
// empty (nil), zero-total, single-epoch and zero-width-first-epoch
// timelines produce defined finite values — in particular MPKIMin must
// be seeded by the first epoch with a defined rate, not left at zero
// when epoch 0 has no width.
func TestPhasesDegenerateTimelines(t *testing.T) {
	// Empty timeline → nil, same as unsampled.
	if ph := phaseSnapshot(nil, nil, nil).Phases(); ph != nil {
		t.Errorf("empty timeline Phases() = %+v, want nil", ph)
	}

	checkFinite := func(ph *PhaseStats) {
		t.Helper()
		for name, v := range map[string]float64{
			"WriteRateCoV":     ph.WriteRateCoV,
			"PeakToMeanWrites": ph.PeakToMeanWrites,
			"PeakToMeanWear":   ph.PeakToMeanWear,
			"MPKIMin":          ph.MPKIMin,
			"MPKIMax":          ph.MPKIMax,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s = %v, want finite", name, v)
			}
		}
	}

	// Zero-total series: epochs with no misses and no writes.
	ph := phaseSnapshot([]uint64{10, 20}, []float64{0, 0}, []float64{0, 0}).Phases()
	if ph == nil {
		t.Fatal("zero-total timeline lost its phases")
	}
	checkFinite(ph)
	if ph.WriteRateCoV != 0 || ph.MPKIMin != 0 || ph.MPKIMax != 0 {
		t.Errorf("zero-total phases = %+v, want all-zero statistics", ph)
	}

	// Single epoch: steady by definition, MPKI min == max.
	ph = phaseSnapshot([]uint64{1000}, []float64{5}, []float64{8}).Phases()
	if ph == nil {
		t.Fatal("single-epoch timeline lost its phases")
	}
	checkFinite(ph)
	if ph.Epochs != 1 || ph.WriteRateCoV != 0 || ph.PeakToMeanWrites != 1 {
		t.Errorf("single-epoch phases = %+v, want CoV 0 and peak/mean 1", ph)
	}
	if ph.MPKIMin != ph.MPKIMax || ph.MPKIMin != 5 {
		t.Errorf("single-epoch MPKI range %v..%v, want exactly 5", ph.MPKIMin, ph.MPKIMax)
	}

	// Zero-width first epoch (X[0] == 0): it has no defined rate and must
	// not pin MPKIMin at 0 — the bounds come from the valid epochs, both
	// of which have MPKI ≥ 2.
	ph = phaseSnapshot([]uint64{0, 1000, 2000}, []float64{9, 2, 4}, []float64{0, 1, 1}).Phases()
	if ph == nil {
		t.Fatal("zero-width-first-epoch timeline lost its phases")
	}
	checkFinite(ph)
	if ph.MPKIMin != 2 || ph.MPKIMax != 4 {
		t.Errorf("MPKI range %v..%v, want 2..4 (zero-width epoch skipped, not seeded as min)", ph.MPKIMin, ph.MPKIMax)
	}

	// A timeline missing the misses series (foreign schema) must not
	// panic; the rate statistics still apply.
	r := &Result{Timeline: &telemetry.TimelineSnapshot{
		Fields: []telemetry.TimelineField{telemetry.DeltaField(TimelineLLCWrites)},
		X:      []uint64{10, 20},
		Series: [][]float64{{3, 3}},
	}}
	ph = r.Phases()
	if ph == nil {
		t.Fatal("missing-misses timeline lost its phases")
	}
	checkFinite(ph)
	if ph.MPKIMin != 0 || ph.MPKIMax != 0 {
		t.Errorf("missing misses series: MPKI range %v..%v, want 0..0", ph.MPKIMin, ph.MPKIMax)
	}
	if ph.PeakToMeanWrites != 1 {
		t.Errorf("steady writes peak/mean = %v, want 1", ph.PeakToMeanWrites)
	}
}

// TestTimelineDeterministicAcrossPaths pins byte-identical timelines and
// heatmaps across every execution strategy that must not change results
// — generator-fed vs materialized input, fresh vs reused scratch, the
// default vs a tiny ring — and pins the reference run to the digest
// committed while the linear-scan scheduler and the AoS tag store still
// ran alongside.
func TestTimelineDeterministicAcrossPaths(t *testing.T) {
	gc := timelineWearCase()
	p, err := workload.ByName(gc.workload)
	if err != nil {
		t.Fatal(err)
	}
	tr := gc.generate(t)
	cfg := gc.cfg()

	ctx := context.Background()
	ref, err := Run(ctx, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, golden.Load(t, resultsFile), gc.name, ref)
	runs := map[string]func() (*Result, error){
		"generator": func() (*Result, error) {
			gen, err := workload.NewGenerator(p, gc.opts)
			if err != nil {
				return nil, err
			}
			return RunStreamWith(ctx, cfg, gen, nil)
		},
		"small-ring": func() (*Result, error) {
			gen, err := workload.NewGenerator(p, gc.opts)
			if err != nil {
				return nil, err
			}
			res, _, err := runChunked(ctx, cfg, gen, nil, 256, 2)
			return res, err
		},
		"scratch-reuse": func() (*Result, error) {
			var scratch Scratch
			if _, err := runWith(ctx, cfg, tr, &scratch); err != nil {
				return nil, err
			}
			return runWith(ctx, cfg, tr, &scratch)
		},
	}
	for name, run := range runs {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Timeline, ref.Timeline) {
			t.Errorf("%s: timeline differs from the reference run", name)
		}
		if !reflect.DeepEqual(got.WearHeatmap, ref.WearHeatmap) {
			t.Errorf("%s: wear heatmap differs from the reference run", name)
		}
	}
}

// TestTimelineFaultSeries checks the fault fields: a heavily pre-aged
// NVM LLC condemns ways during the run, and those events land in the
// epoch series with the capacity level ending at the injector's final
// fraction.
func TestTimelineFaultSeries(t *testing.T) {
	p, err := workload.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(p, workload.Options{Accesses: 40000, Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	models := reference.FixedCapacityModels()
	model, err := reference.ModelByName(models, "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(model).WithCores(4)
	cfg.Timeline = &TimelineConfig{Points: 16}
	cfg.Fault = fault.Config{
		Options:       fault.Options{Class: model.Class},
		PreWearWrites: 4e7,
	}
	r, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Degradation
	if d == nil || r.Timeline == nil {
		t.Fatal("faulted sampled run missing degradation or timeline")
	}
	// Runtime condemnations only: the pre-aged ways are disabled before
	// the clock starts, so the delta series carries just the run's events.
	if got, want := r.Timeline.Sum(TimelineFaultCondemned), float64(d.CondemnedWays); got != want {
		t.Errorf("Sum(fault_condemned) = %v, want %v", got, want)
	}
	if got, want := r.Timeline.Sum(TimelineFaultRetries), float64(d.WriteRetries); got != want {
		t.Errorf("Sum(fault_retries) = %v, want %v", got, want)
	}
	caps := r.Timeline.SeriesOf(TimelineCapacity)
	if len(caps) == 0 {
		t.Fatal("no capacity series")
	}
	if got, want := caps[len(caps)-1], d.CapacityFraction(); got != want {
		t.Errorf("final capacity level = %v, want %v", got, want)
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] > caps[i-1] {
			t.Errorf("capacity rose between epochs %d and %d (%v -> %v)", i-1, i, caps[i-1], caps[i])
		}
	}
}

func TestTimelineConfigValidate(t *testing.T) {
	var nilCfg *TimelineConfig
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config: %v", err)
	}
	if err := (&TimelineConfig{Points: -1}).Validate(); err == nil {
		t.Error("negative Points accepted")
	}
	if got := (&TimelineConfig{}).points(); got != DefaultTimelinePoints {
		t.Errorf("default points = %d, want %d", got, DefaultTimelinePoints)
	}
}

// TestEpochSamplerBoundary drives the reference note() directly: epochs
// advance past multi-epoch retirements and the flush captures the tail.
func TestEpochSamplerBoundary(t *testing.T) {
	es := newEpochSampler(&TimelineConfig{EpochInstructions: 100, Points: 8}, 1000)
	s := &simulator{tims: make([]timing, 1)}
	es.note(s, 50)
	if got := es.tl.Snapshot().Len(); got != 0 {
		t.Errorf("sampled %d epochs before a boundary", got)
	}
	es.note(s, 50) // lands exactly on the boundary
	if got := es.tl.Snapshot().Len(); got != 1 {
		t.Errorf("boundary crossing sampled %d epochs, want 1", got)
	}
	es.note(s, 350) // one retirement spanning several epochs
	snap := es.tl.Snapshot()
	if got := snap.Len(); got != 2 {
		t.Fatalf("multi-epoch retirement sampled %d points, want 2", got)
	}
	if snap.X[1] != 450 {
		t.Errorf("second sample at %d instructions, want 450", snap.X[1])
	}
	if es.next != 500 {
		t.Errorf("next boundary = %d, want 500", es.next)
	}
	es.flush(s)
	if got := es.tl.Snapshot().Len(); got != 2 {
		t.Error("flush with no pending instructions emitted a point")
	}
	es.note(s, 10)
	es.flush(s)
	snap = es.tl.Snapshot()
	if got := snap.Len(); got != 3 || snap.X[2] != 460 {
		t.Errorf("flush after a partial epoch: %d points ending at %v", snap.Len(), snap.X)
	}
}
