package sweep

import (
	"context"
	"fmt"

	"nvmllc/internal/cache"
	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// AblationRow is one design-point measurement for the ablation suite.
type AblationRow struct {
	// Name labels the design point.
	Name string
	// TimeMS, DynEnergyMJ and TotalEnergyMJ are absolute measurements.
	TimeMS, DynEnergyMJ, TotalEnergyMJ float64
	// LLCWrites counts LLC data-array writes.
	LLCWrites uint64
	// Hits counts LLC demand hits.
	Hits uint64
}

// AblationSuite evaluates every modeled design lever on one (workload,
// NVM) pair: the DESIGN.md ablations in one table. The baseline is the
// paper's configuration (LRU, writes off the critical path, no bypass,
// pure NVM LLC). All seven points run as one batch over one trace.
func AblationSuite(ctx context.Context, workloadName, llcName string, cfg Config) ([]AblationRow, error) {
	ctx, span := cfg.startSpan(ctx, "ablation", "workload", workloadName, "llc", llcName)
	defer span.End()
	model, err := reference.ModelByName(reference.FixedCapacityModels(), llcName)
	if err != nil {
		return nil, err
	}
	p, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}

	points := []struct {
		name   string
		mutate func(*system.Config)
	}{
		{"baseline (paper config)", nil},
		{"writes on critical path", func(c *system.Config) { c.ModelWriteContention = true }},
		{"SRRIP replacement", func(c *system.Config) { c.LLCPolicy = cache.SRRIP }},
		{"random replacement", func(c *system.Config) { c.LLCPolicy = cache.Random }},
		{"dead-block bypass", func(c *system.Config) { c.LLCBypass = system.BypassDeadBlock }},
		{"hybrid 4×SRAM ways", func(c *system.Config) {
			c.Hybrid = &system.HybridConfig{
				SRAM: reference.SRAMBaseline(), NVM: model, SRAMWays: 4,
			}
		}},
		{"coherence off", func(c *system.Config) { c.DisableCoherence = true }},
	}

	jobs := make([]engine.Job, len(points))
	for i, pt := range points {
		sysCfg := system.Gainestown(model)
		if pt.mutate != nil {
			pt.mutate(&sysCfg)
		}
		jobs[i] = engine.StreamJob(p, cfg.Opts, sysCfg)
	}
	results, err := cfg.engineOrNew().RunAll(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("sweep: ablation suite: %w", err)
	}
	rows := make([]AblationRow, 0, len(points))
	for i, pt := range points {
		r := results[i]
		rows = append(rows, AblationRow{
			Name:          pt.name,
			TimeMS:        r.TimeNS / 1e6,
			DynEnergyMJ:   r.LLCDynamicJ * 1e3,
			TotalEnergyMJ: r.LLCEnergyJ() * 1e3,
			LLCWrites:     r.LLC.Writes,
			Hits:          r.LLC.Hits,
		})
	}
	return rows, nil
}
