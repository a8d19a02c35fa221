package sweep

// Estimator fast path: one single-pass reuse-distance profile per
// (workload, trace options) answers the LRU hit/miss counts of every
// swept LLC geometry at once (internal/profile), and an analytical
// timing/energy model anchored on the exact SRAM baseline turns them
// into estimated Results. Sweeps that previously simulated every
// (workload, model) pair exactly — most wastefully capacity-only
// variations of the same trace — simulate only the anchor and any
// caller-pinned models, and derive the rest in O(1) per point.
//
// The estimates are approximations and are marked Result.Estimated:
//   - Hit/miss counts are exact for single-threaded traces (the profile
//     filter replicates the simulator's L1/L2 walk access for access)
//     and ignore coherence invalidations on multi-threaded ones.
//   - Timing is a delta correction around the exact anchor: the
//     anchor's memory-stall time is re-priced with the target model's
//     tag/read latencies and the predicted hit/miss mix, using an
//     effective DRAM latency derived from the anchor itself. At the
//     anchor's own (model, geometry) point the estimate reproduces the
//     exact execution time.
//   - Energy uses the paper's equations (6)-(8) exactly, over the
//     predicted event counts; leakage integrates over estimated time.
//   - LLC bank write contention (Config.ModelWriteContention) is only
//     captured insofar as the anchor absorbed it; non-LRU policies,
//     bypass and hybrid LLCs are never estimated.
//
// Estimated results are computed locally and NEVER enter the engine's
// result cache — the cache stores exact simulations only.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nvmllc/internal/cache"
	"nvmllc/internal/dram"
	"nvmllc/internal/engine"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/profile"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/tablefmt"
	"nvmllc/internal/workload"
)

// Estimator switches sweeps from exact per-point simulation to the
// profile-driven fast path. The zero value estimates every non-SRAM
// model; Config.Estimator == nil (the default) keeps every sweep
// byte-identical to the exact path.
type Estimator struct {
	// PinExact lists LLC model names that must stay exactly simulated
	// even on the fast path. The SRAM baseline is always pinned: it is
	// the anchor the analytical timing model corrects around.
	PinExact []string
	// MaxWays bounds the profiled stack-distance histograms (default:
	// the sweep's LLC associativity). Raising it lets one cached
	// profile also answer higher-associativity queries later.
	MaxWays int
}

// pins reports whether the named model must be simulated exactly.
func (e *Estimator) pins(name string) bool {
	if name == "SRAM" {
		return true
	}
	for _, n := range e.PinExact {
		if n == name {
			return true
		}
	}
	return false
}

// runPoints evaluates a design-point grid: exactly via runAll when no
// estimator is configured (the default path), or via the profile-driven
// fast path.
func runPoints(ctx context.Context, eng *engine.Engine, points []gridPoint, cfg Config) ([]map[string]*system.Result, error) {
	if cfg.Estimator == nil {
		return runAll(ctx, eng, points, cfg)
	}
	return runEstimated(ctx, eng, points, cfg)
}

// runEstimated is the fast-path grid: one exact batch for every point's
// SRAM anchor and pinned models, then per point one filtered
// reuse-distance profile and analytical estimates for everything else.
// The result has runAll's shape and partial-result semantics.
func runEstimated(ctx context.Context, eng *engine.Engine, points []gridPoint, cfg Config) ([]map[string]*system.Result, error) {
	est := cfg.Estimator
	exactPts := make([]gridPoint, len(points))
	approx := make([][]nvsim.LLCModel, len(points))
	for i, pt := range points {
		exactPts[i] = pt
		exactPts[i].models = nil
		for _, m := range pt.models {
			if est.pins(m.Name) {
				exactPts[i].models = append(exactPts[i].models, m)
			} else {
				approx[i] = append(approx[i], m)
			}
		}
	}
	raw, runErr := runAll(ctx, eng, exactPts, cfg)
	errs := []error{runErr}
	for i, pt := range points {
		if len(approx[i]) == 0 {
			continue
		}
		base := raw[i]["SRAM"]
		if base == nil {
			// The anchor failed; runAll already reported why.
			continue
		}
		if err := estimatePoint(ctx, eng, est, pt, approx[i], base, raw[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return raw, errors.Join(errs...)
}

// estimatePoint profiles one grid point's trace over the geometry cover
// of its estimated models (their distinct set counts at the sweep's
// fixed associativity) and fills raw with one estimate per model,
// anchored on the exact SRAM result base.
func estimatePoint(ctx context.Context, eng *engine.Engine, est *Estimator, pt gridPoint, approx []nvsim.LLCModel, base *system.Result, raw map[string]*system.Result) error {
	anchorModel, err := reference.ModelByName(pt.models, "SRAM")
	if err != nil {
		return fmt.Errorf("sweep: estimator needs the SRAM anchor: %w", err)
	}
	tmpl := system.Gainestown(anchorModel)
	caps := make([]int64, 0, len(approx))
	for _, m := range approx {
		caps = append(caps, m.CapacityBytes)
	}
	geoms, err := cache.EnumerateGeoms(caps, tmpl.BlockBytes, tmpl.LLCWays)
	if err != nil {
		return err
	}
	pj := engine.StreamProfileJob(pt.wl, pt.opts, profile.Config{
		BlockBytes: tmpl.BlockBytes,
		SetCounts:  cache.SetCountsOf(geoms),
		MaxWays:    max(tmpl.LLCWays, est.MaxWays),
	})
	h := hierarchyFor(tmpl)
	pj.Hierarchy = &h
	prof, err := eng.RunProfile(ctx, pj)
	if err != nil {
		return fmt.Errorf("sweep: profiling %s: %w", pt.wl.Name, err)
	}
	var errs []error
	for _, m := range approx {
		sets, err := cache.SetsFor(m.CapacityBytes, tmpl.BlockBytes, tmpl.LLCWays)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		r, err := estimateResult(base, anchorModel, prof, m, sets, tmpl.LLCWays, float64(tmpl.LLCWays), tmpl.L2LatencyNS)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		raw[m.Name] = r
	}
	return errors.Join(errs...)
}

// hierarchyFor extracts the private-level geometry the profile filter
// must replicate from a system configuration.
func hierarchyFor(sysCfg system.Config) profile.Hierarchy {
	return profile.Hierarchy{
		BlockBytes: sysCfg.BlockBytes,
		L1I:        profile.LevelSpec{CapacityBytes: sysCfg.L1IBytes, Ways: sysCfg.L1IWays},
		L1D:        profile.LevelSpec{CapacityBytes: sysCfg.L1DBytes, Ways: sysCfg.L1DWays},
		L2:         profile.LevelSpec{CapacityBytes: sysCfg.L2Bytes, Ways: sysCfg.L2Ways},
	}
}

// estimateResult derives one design point analytically: the profile
// supplies the LLC hit/miss/write counts at (sets × waysEff), and the
// exact anchor result (simulated with anchor model am on the same
// trace) supplies the timing baseline the target model m is re-priced
// against. waysEff may be fractional (degradation's mean surviving
// associativity); integral waysEff at the anchor's own geometry and
// model reproduces base.TimeNS exactly.
func estimateResult(base *system.Result, am nvsim.LLCModel, prof *profile.Profile, m nvsim.LLCModel, sets, ways int, waysEff float64, l2LatNS float64) (*system.Result, error) {
	hitsF, ok := interpHits(prof, sets, waysEff)
	if !ok {
		return nil, fmt.Errorf("sweep: profile %s lacks geometry %d sets × %.1f ways (covered: %v, ≤%d ways)",
			prof.Name, sets, waysEff, prof.SetCounts(), prof.MaxWays)
	}
	hits := uint64(hitsF + 0.5)
	if hits > prof.Demand {
		hits = prof.Demand
	}
	misses := prof.Demand - hits
	// Every miss fills the array; every L2 dirty eviction writes it
	// (writebacks are geometry-independent — they only depend on the
	// private levels).
	writes := misses + prof.Writebacks

	// Delta-corrected timing: re-price the anchor's LLC-level stalls
	// with the target latencies and predicted mix. The effective DRAM
	// latency comes from the anchor run itself, so queueing and
	// bandwidth effects the anchor saw are carried over.
	dramNS := effDRAMLatencyNS(base, am, l2LatNS)
	predStall := float64(hits)*(m.TagLatencyNS+m.ReadLatencyNS) +
		float64(misses)*(m.TagLatencyNS+dramNS)
	anchStall := float64(base.LLC.Hits)*(am.TagLatencyNS+am.ReadLatencyNS) +
		float64(base.LLC.Misses)*(am.TagLatencyNS+dramNS)
	threads := prof.Threads
	if threads < 1 {
		threads = 1
	}
	t := base.TimeNS + (predStall-anchStall)/float64(threads)
	if t < 1 {
		t = 1
	}

	r := &system.Result{
		Workload:     base.Workload,
		LLCName:      m.Name,
		Cores:        base.Cores,
		TimeNS:       t,
		Instructions: base.Instructions,
		LLC:          system.LLCStats{Hits: hits, Misses: misses, Writes: writes},
		DRAM:         dram.Stats{Reads: misses},
		MemStallNS:   predStall + float64(base.L2.Hits)*l2LatNS,
		ClockGHz:     base.ClockGHz,
		Estimated:    true,
	}
	if up := prof.Upstream; up != nil {
		r.L1I, r.L1D, r.L2 = up.L1I, up.L1D, up.L2
	} else {
		r.L1I, r.L1D, r.L2 = base.L1I, base.L1D, base.L2
	}
	// Equations (6)-(8) over the predicted counts; leakage over the
	// estimated time.
	dynNJ := float64(hits)*m.HitEnergyNJ + float64(misses)*m.MissEnergyNJ + float64(writes)*m.WriteEnergyNJ
	r.LLCDynamicJ = dynNJ * 1e-9
	r.LLCLeakageJ = m.LeakageW * t * 1e-9
	return r, nil
}

// interpHits reads the profile's hit count at a possibly fractional
// way count, interpolating linearly between the bracketing histogram
// prefixes (0 ways hits nothing).
func interpHits(prof *profile.Profile, sets int, waysEff float64) (float64, bool) {
	if waysEff <= 0 {
		return 0, true
	}
	lo := int(waysEff)
	hi := lo
	if float64(lo) < waysEff {
		hi = lo + 1
	}
	var hLo uint64
	if lo > 0 {
		var ok bool
		if hLo, ok = prof.HitsFor(sets, lo); !ok {
			return 0, false
		}
	}
	hHi, ok := prof.HitsFor(sets, hi)
	if !ok {
		return 0, false
	}
	f := waysEff - float64(lo)
	return float64(hLo) + (float64(hHi)-float64(hLo))*f, true
}

// effDRAMLatencyNS derives the anchor run's effective per-miss DRAM
// service latency by subtracting the modeled L2- and LLC-hit stalls
// from its measured memory-stall time. Clamped non-negative: the
// decomposition over-counts slightly (stores retire without stalling),
// and the residual is what the delta correction re-prices.
func effDRAMLatencyNS(base *system.Result, am nvsim.LLCModel, l2LatNS float64) float64 {
	if base.LLC.Misses == 0 {
		return 0
	}
	stall := base.MemStallNS -
		float64(base.L2.Hits)*l2LatNS -
		float64(base.LLC.Hits)*(am.TagLatencyNS+am.ReadLatencyNS)
	d := stall/float64(base.LLC.Misses) - am.TagLatencyNS
	if d < 0 {
		d = 0
	}
	return d
}

// EstimateOptions parameterizes the estimator-validation artifact; the
// zero value selects the defaults.
type EstimateOptions struct {
	// Workload is the trace to validate on (default "is").
	Workload string
	// MaxCapacityBytes tops the halving capacity ladder (default 8 MiB).
	MaxCapacityBytes int64
	// Points is the ladder length (default 6: 256 KiB .. 8 MiB).
	Points int
}

// EstimateRow compares the profile-derived estimate against exact
// simulation for one LLC geometry.
type EstimateRow struct {
	CapacityBytes int64
	Sets, Ways    int
	// PredHits/ExactHits are LLC demand hits; the rates divide by
	// demand accesses.
	PredHits, ExactHits       uint64
	PredHitRate, ExactHitRate float64
	// AbsRateErr is |predicted − exact| hit rate, in percentage points.
	AbsRateErr              float64
	PredMPKI, ExactMPKI     float64
	PredTimeNS, ExactTimeNS float64
	// TimeErrPct is the signed relative execution-time error in percent.
	TimeErrPct float64
	// Anchor marks the geometry the timing model is anchored on (its
	// time error is zero by construction).
	Anchor bool
}

// EstimateStudy is the estimate artifact: predicted-vs-exact hit rate,
// MPKI and execution time across a capacity ladder of SRAM-class LLCs,
// quantifying the fast path's error model on one workload.
type EstimateStudy struct {
	Workload string
	Threads  int
	Rows     []EstimateRow
	// MeanAbsRateErr and MaxAbsRateErr aggregate the hit-rate error in
	// percentage points.
	MeanAbsRateErr, MaxAbsRateErr float64
}

// Estimate runs the validation study: exact simulations of the SRAM
// baseline at every ladder capacity versus one filtered profile
// answering all of them, anchored at the 2 MB baseline point.
func Estimate(ctx context.Context, cfg Config, opts EstimateOptions) (*EstimateStudy, error) {
	if opts.Workload == "" {
		opts.Workload = "is"
	}
	if opts.MaxCapacityBytes == 0 {
		opts.MaxCapacityBytes = 8 << 20
	}
	if opts.Points == 0 {
		opts.Points = 6
	}
	ctx, span := cfg.startSpan(ctx, "estimate", "workload", opts.Workload)
	defer span.End()

	p, err := workload.ByName(opts.Workload)
	if err != nil {
		return nil, err
	}
	caps, err := cache.CapacityLadder(opts.MaxCapacityBytes, opts.Points)
	if err != nil {
		return nil, err
	}

	// The ladder models are the SRAM baseline resized: only geometry
	// varies, so every difference in the table is the estimator's.
	anchorIdx := len(caps) / 2
	models := make([]nvsim.LLCModel, len(caps))
	for i, c := range caps {
		m := reference.SRAMBaseline()
		m.CapacityBytes = c
		m.Name = fmt.Sprintf("SRAM@%s", fmtBytes(c))
		models[i] = m
		if c == reference.SRAMBaseline().CapacityBytes {
			anchorIdx = i
		}
	}

	eng := cfg.engineOrNew()
	jobs := make([]engine.Job, len(models))
	for i, m := range models {
		sysCfg := system.Gainestown(m)
		sysCfg.ModelWriteContention = cfg.WriteContention
		jobs[i] = engine.StreamJob(p, cfg.Opts, sysCfg)
	}
	exact, err := eng.RunAll(ctx, jobs)
	if err != nil {
		return nil, err
	}
	anchor := exact[anchorIdx]

	tmpl := system.Gainestown(models[anchorIdx])
	geoms, err := cache.EnumerateGeoms(caps, tmpl.BlockBytes, tmpl.LLCWays)
	if err != nil {
		return nil, err
	}
	pj := engine.StreamProfileJob(p, cfg.Opts, profile.Config{
		BlockBytes: tmpl.BlockBytes,
		SetCounts:  cache.SetCountsOf(geoms),
		MaxWays:    tmpl.LLCWays,
	})
	h := hierarchyFor(tmpl)
	pj.Hierarchy = &h
	prof, err := eng.RunProfile(ctx, pj)
	if err != nil {
		return nil, err
	}

	study := &EstimateStudy{Workload: opts.Workload, Threads: prof.Threads}
	for i, c := range caps {
		sets, err := cache.SetsFor(c, tmpl.BlockBytes, tmpl.LLCWays)
		if err != nil {
			return nil, err
		}
		est, err := estimateResult(anchor, models[anchorIdx], prof, models[i], sets, tmpl.LLCWays, float64(tmpl.LLCWays), tmpl.L2LatencyNS)
		if err != nil {
			return nil, err
		}
		sim := exact[i]
		row := EstimateRow{
			CapacityBytes: c,
			Sets:          sets,
			Ways:          tmpl.LLCWays,
			PredHits:      est.LLC.Hits,
			ExactHits:     sim.LLC.Hits,
			PredMPKI:      est.LLCMPKI(),
			ExactMPKI:     sim.LLCMPKI(),
			PredTimeNS:    est.TimeNS,
			ExactTimeNS:   sim.TimeNS,
			Anchor:        i == anchorIdx,
		}
		if acc := sim.LLC.Accesses(); acc > 0 {
			row.ExactHitRate = float64(sim.LLC.Hits) / float64(acc)
		}
		if acc := est.LLC.Accesses(); acc > 0 {
			row.PredHitRate = float64(est.LLC.Hits) / float64(acc)
		}
		row.AbsRateErr = math.Abs(row.PredHitRate-row.ExactHitRate) * 100
		if sim.TimeNS > 0 {
			row.TimeErrPct = (est.TimeNS - sim.TimeNS) / sim.TimeNS * 100
		}
		study.Rows = append(study.Rows, row)
		study.MeanAbsRateErr += row.AbsRateErr
		if row.AbsRateErr > study.MaxAbsRateErr {
			study.MaxAbsRateErr = row.AbsRateErr
		}
	}
	if n := len(study.Rows); n > 0 {
		study.MeanAbsRateErr /= float64(n)
	}
	return study, nil
}

// RenderEstimate formats the study the way cmd/figures prints tables.
func RenderEstimate(s *EstimateStudy) *tablefmt.Table {
	t := tablefmt.New(
		fmt.Sprintf("Estimator validation: %s, %d threads (reuse-distance profile vs exact simulation; mean |Δhit| %.3f pp, max %.3f pp)",
			s.Workload, s.Threads, s.MeanAbsRateErr, s.MaxAbsRateErr),
		"LLC", "geometry", "hit% prof", "hit% sim", "|Δ| pp", "MPKI prof", "MPKI sim", "time prof [ms]", "time sim [ms]", "Δtime %")
	for _, r := range s.Rows {
		name := fmtBytes(r.CapacityBytes)
		if r.Anchor {
			name += " *"
		}
		t.AddRowf(name, fmt.Sprintf("%d×%d", r.Sets, r.Ways),
			r.PredHitRate*100, r.ExactHitRate*100, r.AbsRateErr,
			r.PredMPKI, r.ExactMPKI,
			r.PredTimeNS/1e6, r.ExactTimeNS/1e6, r.TimeErrPct)
	}
	return t
}

// runEstimateArtifact adapts Estimate to the artifact registry.
func runEstimateArtifact(ctx context.Context, cfg Config) (*ArtifactResult, error) {
	study, err := Estimate(ctx, cfg, EstimateOptions{})
	if err != nil {
		return nil, err
	}
	return &ArtifactResult{Value: study, Renderers: []Renderer{RenderEstimate(study)}}, nil
}

// fmtBytes renders a power-of-two capacity compactly (256KiB, 2MiB).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
