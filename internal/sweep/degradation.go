package sweep

// Degradation-over-lifetime study: the simulated counterpart of the
// analytical Lifetime table. Where Lifetime projects when the first cell
// dies, this artifact replays a workload at increasing cumulative-wear
// points (internal/fault pre-aging) and measures what the cache is still
// worth past that point: effective capacity, IPC and MPKI as faulty ways
// are disabled set by set — the L2C2-style graceful-degradation regime
// (Escuin et al., arXiv:2204.09504).

import (
	"context"
	"fmt"
	"math"

	"nvmllc/internal/endurance"
	"nvmllc/internal/engine"
	"nvmllc/internal/fault"
	"nvmllc/internal/nvm"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// DegradationOptions parameterizes the study; the zero value selects the
// defaults (workload "is" — the most write-intensive NAS kernel — on one
// wearing LLC per NVM class plus the SRAM control).
type DegradationOptions struct {
	// Workload is the trace replayed at every age point (default "is").
	Workload string
	// LLCs are the fixed-capacity models to age (default Kang_P, Chung_S,
	// SRAM: a PCRAM that degrades within its service life, an STTRAM
	// whose 10¹⁵ budget keeps it flat over the same years, and the
	// non-wearing control).
	LLCs []string
	// AgesYears is the explicit age ladder. Empty derives one from the
	// shortest finite nominal lifetime among the LLCs: 0 to 2× that
	// lifetime in eight steps, bracketing the onset of degradation.
	AgesYears []float64
	// FaultSeed pins the fault process seed across LLCs (0 keeps the
	// per-geometry derivation).
	FaultSeed uint64
}

// DegradationPoint is one aged replay of the workload.
type DegradationPoint struct {
	// AgeYears is the simulated service age; PreWearWrites is the
	// per-cell write count it translates to at the LLC's measured rate.
	AgeYears      float64
	PreWearWrites float64
	// CapacityFraction is the fraction of LLC lines still usable at the
	// end of the replay (1 = pristine).
	CapacityFraction float64
	// CondemnedWays is the total disabled ways (pre-aged + runtime);
	// DeadSets counts sets with no ways left.
	CondemnedWays int
	DeadSets      int
	// WriteRetries and LinesLost count the write-verify traffic during
	// the replay.
	WriteRetries uint64
	LinesLost    uint64
	// IPC, MPKI and TimeNS measure what the degraded cache costs.
	IPC    float64
	MPKI   float64
	TimeNS float64
}

// DegradationCurve is one LLC's capacity/performance-vs-age trajectory.
type DegradationCurve struct {
	// LLC and Class identify the model.
	LLC   string
	Class nvm.Class
	// EnduranceWrites is the per-cell budget (Table I) driving the decay.
	EnduranceWrites float64
	// PerCellWritesPerSec is the ideal-intra-set-leveling aging rate
	// measured from the baseline (unaged, wear-tracked) run.
	PerCellWritesPerSec float64
	// NominalYears is when the average cell exhausts its budget at that
	// rate (+Inf for non-wearing technologies or idle caches).
	NominalYears float64
	// Points are the aged replays, in ladder order.
	Points []DegradationPoint
}

// DegradationStudy is the full artifact: one curve per LLC over a shared
// absolute age ladder, so a wearing PCRAM visibly decays while STTRAM
// and SRAM hold flat over the same calendar years.
type DegradationStudy struct {
	Workload  string
	AgesYears []float64
	Curves    []DegradationCurve
}

// Degradation runs the study: one wear-tracked baseline per LLC to
// measure its per-cell write rate, then one faulted replay per (LLC,
// age) with the cumulative wear pre-applied. All replays run through the
// engine — the fault config is part of the result-cache key, so repeated
// studies hit the cache.
func Degradation(ctx context.Context, cfg Config, opts DegradationOptions) (*DegradationStudy, error) {
	if opts.Workload == "" {
		opts.Workload = "is"
	}
	if len(opts.LLCs) == 0 {
		opts.LLCs = []string{"Kang_P", "Chung_S", "SRAM"}
	}
	ctx, span := cfg.startSpan(ctx, "degradation", "workload", opts.Workload)
	defer span.End()

	p, err := workload.ByName(opts.Workload)
	if err != nil {
		return nil, err
	}
	models := reference.FixedCapacityModels()
	eng := cfg.engineOrNew()

	// Baseline pass: wear-tracked, unaged, one run per LLC, measuring the
	// per-cell write rate each curve ages at.
	baseJobs := make([]engine.Job, 0, len(opts.LLCs))
	for _, name := range opts.LLCs {
		model, err := reference.ModelByName(models, name)
		if err != nil {
			return nil, err
		}
		sysCfg := system.Gainestown(model)
		sysCfg.ModelWriteContention = cfg.WriteContention
		sysCfg.TrackWear = true
		baseJobs = append(baseJobs, engine.StreamJob(p, cfg.Opts, sysCfg))
	}
	baseResults, err := eng.RunAll(ctx, baseJobs)
	if err != nil {
		return nil, err
	}

	study := &DegradationStudy{Workload: opts.Workload}
	for i, name := range opts.LLCs {
		model, _ := reference.ModelByName(models, name)
		r := baseResults[i]
		if r == nil || r.Wear == nil {
			return nil, fmt.Errorf("sweep: degradation baseline for %s produced no wear data", name)
		}
		curve := DegradationCurve{
			LLC:             name,
			Class:           model.Class,
			EnduranceWrites: nvm.WriteEndurance(model.Class),
		}
		if lines := r.Wear.Sets * r.Wear.Ways; lines > 0 && r.Seconds() > 0 {
			curve.PerCellWritesPerSec = float64(r.Wear.TotalWrites) / float64(lines) / r.Seconds()
		}
		curve.NominalYears = math.Inf(1)
		if curve.PerCellWritesPerSec > 0 && !math.IsInf(curve.EnduranceWrites, 1) {
			curve.NominalYears = curve.EnduranceWrites / curve.PerCellWritesPerSec / endurance.SecondsPerYear
		}
		study.Curves = append(study.Curves, curve)
	}

	study.AgesYears = opts.AgesYears
	if len(study.AgesYears) == 0 {
		study.AgesYears = deriveAgeLadder(study.Curves)
	}

	// Aged pass: every (LLC, age) point, faults enabled with the
	// cumulative wear pre-applied. Ages are shared absolute years, so the
	// short-lived technology decays across the ladder while long-lived
	// ones stay flat over the very same calendar time.
	agedJobs := make([]engine.Job, 0, len(study.Curves)*len(study.AgesYears))
	type pointKey struct{ curve, age int }
	keys := make([]pointKey, 0, cap(agedJobs))
	for ci := range study.Curves {
		curve := &study.Curves[ci]
		model, _ := reference.ModelByName(models, curve.LLC)
		for ai, age := range study.AgesYears {
			sysCfg := system.Gainestown(model)
			sysCfg.ModelWriteContention = cfg.WriteContention
			fc := fault.Config{
				Options:       fault.Options{Class: model.Class},
				Seed:          opts.FaultSeed,
				PreWearWrites: curve.PerCellWritesPerSec * age * endurance.SecondsPerYear,
			}
			if fc.Enabled() {
				// Non-wearing technologies keep the zero-value (inert)
				// fault config, so every age point shares one cached
				// simulation — the flat curve costs one run.
				sysCfg.Fault = fc
			}
			agedJobs = append(agedJobs, engine.StreamJob(p, cfg.Opts, sysCfg))
			keys = append(keys, pointKey{ci, ai})
		}
	}
	agedResults, err := eng.RunAll(ctx, agedJobs)
	if err != nil {
		return nil, err
	}
	for ji, r := range agedResults {
		if r == nil {
			return nil, fmt.Errorf("sweep: degradation point %s/%gy produced no result",
				study.Curves[keys[ji].curve].LLC, study.AgesYears[keys[ji].age])
		}
		curve := &study.Curves[keys[ji].curve]
		age := study.AgesYears[keys[ji].age]
		pt := DegradationPoint{
			AgeYears:         age,
			PreWearWrites:    curve.PerCellWritesPerSec * age * endurance.SecondsPerYear,
			CapacityFraction: 1,
			IPC:              r.IPC(),
			MPKI:             r.LLCMPKI(),
			TimeNS:           r.TimeNS,
		}
		if d := r.Degradation; d != nil {
			pt.CapacityFraction = d.CapacityFraction()
			pt.CondemnedWays = d.InitialDisabledWays + d.CondemnedWays
			pt.DeadSets = d.DeadSets
			pt.WriteRetries = d.WriteRetries
			pt.LinesLost = d.FailedWrites
		}
		curve.Points = append(curve.Points, pt)
	}
	return study, nil
}

// deriveAgeLadder builds the shared absolute age ladder from the
// shortest finite nominal lifetime among the curves: eight points from 0
// to 2× that lifetime, bracketing the capacity knee. With no wearing
// technology in the set there is nothing to sweep and age 0 suffices.
func deriveAgeLadder(curves []DegradationCurve) []float64 {
	shortest := math.Inf(1)
	for _, c := range curves {
		if c.NominalYears < shortest {
			shortest = c.NominalYears
		}
	}
	if math.IsInf(shortest, 1) || shortest <= 0 {
		return []float64{0}
	}
	fractions := []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 2}
	ages := make([]float64, len(fractions))
	for i, f := range fractions {
		ages[i] = f * shortest
	}
	return ages
}
