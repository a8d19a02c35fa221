package sweep

import (
	"context"
	"fmt"
	"slices"

	"nvmllc/internal/nvsim"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// CoreSweepResult holds the Section V-C sensitivity study for one
// workload: performance and LLC energy across core counts and LLC
// technologies, normalized to the single-core SRAM baseline.
type CoreSweepResult struct {
	// Workload is the benchmark name.
	Workload string
	// Cores lists the swept core counts.
	Cores []int
	// LLCs are the model names (including SRAM).
	LLCs []string
	// Speedup and Energy are indexed [coreIdx][llc], normalized to the
	// 1-core SRAM run.
	Speedup, Energy [][]float64
	// Raw holds the underlying results indexed the same way.
	Raw [][]*system.Result
}

// DefaultCoreCounts is the paper's sweep: 1 to 32 cores.
var DefaultCoreCounts = []int{1, 2, 4, 8, 16, 32}

// CoreSweep runs the Section V-C study: one multi-threaded workload across
// core counts for every fixed-area LLC model, normalized to 1-core SRAM.
// Every core count, and the 1-core SRAM baseline when cores lacks 1, is
// one grid point of a single batch.
func CoreSweep(ctx context.Context, name string, cores []int, cfg Config) (*CoreSweepResult, error) {
	ctx, span := cfg.startSpan(ctx, "core_sweep", "workload", name)
	defer span.End()
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if !p.MT {
		return nil, fmt.Errorf("sweep: core sweep needs a multi-threaded workload, %s is single-threaded", name)
	}
	if len(cores) == 0 {
		cores = DefaultCoreCounts
	}
	models := reference.FixedAreaModels()
	res := &CoreSweepResult{Workload: name, Cores: cores}
	for _, m := range models {
		res.LLCs = append(res.LLCs, m.Name)
	}

	points := make([]gridPoint, 0, len(cores)+1)
	for _, n := range cores {
		points = append(points, gridPoint{wl: p, opts: threadOpts(cfg.Opts, n), cores: n, models: models})
	}
	base := slices.Index(cores, 1)
	if base < 0 {
		points = append(points, gridPoint{wl: p, opts: threadOpts(cfg.Opts, 1), cores: 1,
			models: []nvsim.LLCModel{reference.SRAMBaseline()}})
		base = len(points) - 1
	}
	raw, err := runAll(ctx, cfg.engineOrNew(), points, cfg)
	if err != nil {
		return nil, err
	}
	baseline := raw[base]["SRAM"]
	for i, n := range cores {
		var sp, en []float64
		var rawRow []*system.Result
		for _, llc := range res.LLCs {
			r := raw[i][llc]
			if r == nil {
				return nil, fmt.Errorf("sweep: core sweep missing result for %s on %s at %d cores", name, llc, n)
			}
			sp = append(sp, baseline.TimeNS/r.TimeNS)
			en = append(en, r.LLCEnergyJ()/baseline.LLCEnergyJ())
			rawRow = append(rawRow, r)
		}
		res.Speedup = append(res.Speedup, sp)
		res.Energy = append(res.Energy, en)
		res.Raw = append(res.Raw, rawRow)
	}
	return res, nil
}

// threadOpts is opts with the thread count set.
func threadOpts(opts workload.Options, threads int) workload.Options {
	opts.Threads = threads
	return opts
}

// CoreSweepWorkloads are the workloads Section V-C discusses.
var CoreSweepWorkloads = []string{"ft", "cg", "lu", "sp", "mg", "is"}
