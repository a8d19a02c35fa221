package sweep

import (
	"context"

	"nvmllc/internal/engine"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/prism"
	"nvmllc/internal/reference"
	"nvmllc/internal/workload"
)

// TableVRow is one row of the regenerated Table V: a workload and its
// simulated LLC MPKI on the SRAM baseline, next to the paper's value.
type TableVRow struct {
	Workload  string
	Suite     string
	MPKI      float64
	PaperMPKI float64
}

// TableV simulates every Table V workload on the baseline SRAM system, as
// one batch, and reports its LLC MPKI alongside the paper's measurement.
func TableV(ctx context.Context, cfg Config) ([]TableVRow, error) {
	ctx, span := cfg.startSpan(ctx, "table_v")
	defer span.End()
	sram := []nvsim.LLCModel{reference.SRAMBaseline()}
	points := make([]gridPoint, 0, len(reference.Workloads()))
	for _, w := range reference.Workloads() {
		p, err := workload.ByName(w.Name)
		if err != nil {
			return nil, err
		}
		points = append(points, gridPoint{wl: p, opts: cfg.Opts, models: sram})
	}
	raw, err := runAll(ctx, cfg.engineOrNew(), points, cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]TableVRow, 0, len(points))
	for i, w := range reference.Workloads() {
		rows = append(rows, TableVRow{
			Workload:  w.Name,
			Suite:     w.Suite,
			MPKI:      raw[i]["SRAM"].LLCMPKI(),
			PaperMPKI: w.LLCMPKI,
		})
	}
	return rows, nil
}

// TableVIRow pairs a workload with its measured features and the paper's.
type TableVIRow struct {
	Workload string
	Measured prism.Features
	Paper    prism.Features
}

// TableVI characterizes the 16 PRISM-compatible workloads with the prism
// profiler, as one batch of engine feature jobs, and pairs each with the
// paper's published features; rows keep the workload order.
func TableVI(ctx context.Context, cfg Config) ([]TableVIRow, error) {
	ctx, span := cfg.startSpan(ctx, "table_vi")
	defer span.End()
	names := workload.CharacterizedNames()
	measured, err := measureFeatures(ctx, cfg.engineOrNew(), names, cfg.Opts)
	if err != nil {
		return nil, err
	}
	paper := reference.PaperFeatures()
	rows := make([]TableVIRow, len(names))
	for i, name := range names {
		rows[i] = TableVIRow{Workload: name, Measured: measured[i], Paper: paper[name]}
	}
	return rows, nil
}

// measureFeatures characterizes the named workloads' traces under opts
// on the engine, in name order.
func measureFeatures(ctx context.Context, eng *engine.Engine, names []string, opts workload.Options) ([]prism.Features, error) {
	jobs := make([]engine.FeatureJob, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		jobs[i] = engine.StreamFeatureJob(p, opts, prism.Config{})
	}
	return eng.Characterize(ctx, jobs)
}
