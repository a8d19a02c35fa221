package sweep

import (
	"context"

	"nvmllc/internal/charfw"
	"nvmllc/internal/endurance"
	"nvmllc/internal/engine"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// LifetimeRow is one (workload, LLC) lifetime projection.
type LifetimeRow struct {
	endurance.Projection
	// LLCWritesPerSec is the aggregate write rate, for context.
	LLCWritesPerSec float64
}

// LifetimeStudy projects LLC lifetime for every characterized workload on
// the given fixed-capacity NVM LLCs (default: one representative per
// class — Kang_P, Chung_S, Zhang_R — since endurance is a class
// property), and correlates the raw lifetime with the paper's workload
// features: the Section VII future-work study.
type LifetimeStudy struct {
	Rows []LifetimeRow
	// Panels hold, per LLC, the |Pearson r| of each workload feature with
	// the raw projected lifetime (a single-row "energy" panel reused for
	// lifetime).
	Panels []*charfw.Panel
}

// Lifetime runs the study: every (LLC, workload) point in one batch.
func Lifetime(ctx context.Context, cfg Config, llcs []string) (*LifetimeStudy, error) {
	ctx, span := cfg.startSpan(ctx, "lifetime")
	defer span.End()
	if len(llcs) == 0 {
		llcs = []string{"Kang_P", "Chung_S", "Zhang_R"}
	}
	all := reference.FixedCapacityModels()
	models := make([]nvsim.LLCModel, len(llcs))
	for i, llcName := range llcs {
		m, err := reference.ModelByName(all, llcName)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	names := workload.CharacterizedNames()
	profiles := make([]workload.Profile, len(names))
	for i, wlName := range names {
		p, err := workload.ByName(wlName)
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}
	jobs := make([]engine.Job, 0, len(models)*len(profiles))
	for _, model := range models {
		sysCfg := system.Gainestown(model)
		sysCfg.ModelWriteContention = cfg.WriteContention
		sysCfg.TrackWear = true
		for _, p := range profiles {
			jobs = append(jobs, engine.StreamJob(p, cfg.Opts, sysCfg))
		}
	}
	results, err := cfg.engineOrNew().RunAll(ctx, jobs)
	if err != nil {
		return nil, err
	}

	study := &LifetimeStudy{}
	fw := charfw.FromFeatureMap(reference.PaperFeatures())
	for mi, model := range models {
		lifeByWorkload := map[string]float64{}
		for wi, wlName := range names {
			r := results[mi*len(names)+wi]
			est, err := endurance.Estimate(r, endurance.Options{Class: model.Class})
			if err != nil {
				return nil, err
			}
			study.Rows = append(study.Rows, LifetimeRow{
				Projection:      est,
				LLCWritesPerSec: float64(r.LLC.Writes) / r.Seconds(),
			})
			lifeByWorkload[wlName] = est.RawYears
		}
		// Correlate wear RATE (1/lifetime) with features so the target is
		// finite and monotone in stress.
		rateByWorkload := map[string]float64{}
		for w, y := range lifeByWorkload {
			if y > 0 {
				rateByWorkload[w] = 1 / y
			}
		}
		panel, err := fw.PanelFor(ctx, names, charfw.Targets{
			Name:    model.Name + " wear rate",
			Energy:  rateByWorkload,
			Speedup: rateByWorkload,
		})
		if err != nil {
			return nil, err
		}
		study.Panels = append(study.Panels, panel)
	}
	return study, nil
}
