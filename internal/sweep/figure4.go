package sweep

import (
	"context"
	"fmt"

	"nvmllc/internal/charfw"
	"nvmllc/internal/reference"
	"nvmllc/internal/workload"
)

// FeatureSource selects where Figure 4's feature vectors come from.
type FeatureSource int

const (
	// PaperFeatures uses the paper's published Table VI values (the
	// default — the released dataset a downstream user would correlate
	// against).
	PaperFeatures FeatureSource = iota
	// MeasuredFeatures characterizes this project's synthetic traces with
	// the prism profiler.
	MeasuredFeatures
)

// Figure4Config controls the correlation study.
type Figure4Config struct {
	Config
	// Source selects the feature table.
	Source FeatureSource
	// Workloads are the use cases to correlate over; nil means the paper's
	// AI set (deepsjeng, leela, exchange2).
	Workloads []string
	// NVMs are the LLCs to panel; nil means the paper's best three
	// (Jan_S, Xue_S, Hayakawa_R).
	NVMs []string
}

// Figure4 regenerates the paper's Figure 4: one correlation panel per
// (NVM, configuration) pair — fixed-capacity panels (a)-(c) then
// fixed-area panels (d)-(f) — correlating each workload's features with
// the NVM system's energy and speedup over the workload set.
func Figure4(ctx context.Context, cfg Figure4Config) ([]*charfw.Panel, error) {
	ws := cfg.Workloads
	if ws == nil {
		ws = workload.AINames()
	}
	nvms := cfg.NVMs
	if nvms == nil {
		nvms = append([]string(nil), reference.BestNVMs...)
	}

	// One engine answers the measured features and one simulation sweep
	// per configuration over the target workloads, so the sweeps replay
	// the characterized traces and shared design points (the SRAM
	// baseline is identical in the fixed-capacity and fixed-area model
	// sets) simulate exactly once.
	cfg.Config.Engine = cfg.Config.engineOrNew()
	fw, err := buildFramework(ctx, cfg, ws)
	if err != nil {
		return nil, err
	}

	fixCap, err := RunFigure(ctx, "fig4 fixed-capacity", reference.FixedCapacityModels(), ws, cfg.Config)
	if err != nil {
		return nil, err
	}
	fixArea, err := RunFigure(ctx, "fig4 fixed-area", reference.FixedAreaModels(), ws, cfg.Config)
	if err != nil {
		return nil, err
	}

	var panels []*charfw.Panel
	for _, block := range []struct {
		label string
		fig   *FigureResult
	}{{"fixed-capacity", fixCap}, {"fixed-area", fixArea}} {
		for _, nvm := range nvms {
			t := charfw.Targets{
				Name:    fmt.Sprintf("%s %s", nvm, block.label),
				Energy:  map[string]float64{},
				Speedup: map[string]float64{},
			}
			for _, w := range ws {
				sp, en, _, err := block.fig.Cell(w, nvm)
				if err != nil {
					return nil, err
				}
				t.Energy[w] = en
				t.Speedup[w] = sp
			}
			p, err := fw.PanelFor(ctx, ws, t)
			if err != nil {
				return nil, err
			}
			panels = append(panels, p)
		}
	}
	return panels, nil
}

// buildFramework assembles the feature table from the configured source,
// measuring features on cfg's engine.
func buildFramework(ctx context.Context, cfg Figure4Config, ws []string) (*charfw.Framework, error) {
	fw := charfw.New()
	switch cfg.Source {
	case PaperFeatures:
		paper := reference.PaperFeatures()
		for _, w := range ws {
			f, ok := paper[w]
			if !ok {
				return nil, fmt.Errorf("sweep: no published Table VI features for %q", w)
			}
			fw.AddWorkload(w, f)
		}
	case MeasuredFeatures:
		measured, err := measureFeatures(ctx, cfg.Engine, ws, cfg.Opts)
		if err != nil {
			return nil, err
		}
		for i, w := range ws {
			fw.AddWorkload(w, measured[i])
		}
	default:
		return nil, fmt.Errorf("sweep: unknown feature source %d", cfg.Source)
	}
	return fw, nil
}

// GeneralPurposeCorrelation runs the framework over all 16 characterized
// workloads (the paper's general-purpose case, where energy and execution
// time correlate most with total reads and writes). It returns one panel
// per configured NVM for the given configuration block.
func GeneralPurposeCorrelation(ctx context.Context, cfg Figure4Config) ([]*charfw.Panel, error) {
	cfg.Workloads = workload.CharacterizedNames()
	return Figure4(ctx, cfg)
}
