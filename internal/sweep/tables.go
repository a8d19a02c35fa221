package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

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
// profiler and pairs each with the paper's published features. The
// workloads are characterized side by side, one per worker (the engine's
// bound, or cfg.Parallelism without one); rows keep the workload order.
func TableVI(ctx context.Context, cfg Config) ([]TableVIRow, error) {
	_, span := cfg.startSpan(ctx, "table_vi")
	defer span.End()
	paper := reference.PaperFeatures()
	names := workload.CharacterizedNames()
	rows := make([]TableVIRow, len(names))
	errs := make([]error, len(names))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(cfg.workers(), len(names)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				name := names[i]
				var f prism.Features
				f, errs[i] = characterize(ctx, name, cfg.Opts)
				rows[i] = TableVIRow{Workload: name, Measured: f, Paper: paper[name]}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return rows, nil
}

// characterize generates one workload's trace and profiles it.
func characterize(ctx context.Context, name string, opts workload.Options) (prism.Features, error) {
	if err := ctx.Err(); err != nil {
		return prism.Features{}, err
	}
	p, err := workload.ByName(name)
	if err != nil {
		return prism.Features{}, err
	}
	tr, err := workload.Generate(p, opts)
	if err != nil {
		return prism.Features{}, err
	}
	return prism.Characterize(tr, prism.Config{}), nil
}
