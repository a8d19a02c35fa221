package sweep

// Profile validation: one single-pass reuse-distance profile per
// (workload, trace options) answers the LRU hit count of every LLC
// geometry at once (internal/profile; the single-pass, all-geometries
// exploration of Haque et al., arXiv:1506.03193). The estimate artifact
// publishes those predictions next to exact simulations of the same
// geometries, so the profile's error is measured, not assumed. Every
// sweep grid itself is simulated exactly.

import (
	"context"
	"fmt"
	"math"

	"nvmllc/internal/cache"
	"nvmllc/internal/engine"
	"nvmllc/internal/profile"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/tablefmt"
	"nvmllc/internal/workload"
)

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

// EstimateOptions parameterizes the profile-validation artifact; the
// zero value selects the defaults.
type EstimateOptions struct {
	// Workload is the trace to validate on (default "is").
	Workload string
	// MaxCapacityBytes tops the halving capacity ladder (default 8 MiB).
	MaxCapacityBytes int64
	// Points is the ladder length (default 6: 256 KiB .. 8 MiB).
	Points int
}

// EstimateRow compares the profile's prediction against exact
// simulation for one LLC geometry.
type EstimateRow struct {
	CapacityBytes int64
	Sets, Ways    int
	// PredHits/ExactHits are LLC demand hits; the rates divide by
	// demand accesses.
	PredHits, ExactHits       uint64
	PredHitRate, ExactHitRate float64
	// AbsRateErr is |predicted − exact| hit rate, in percentage points.
	AbsRateErr          float64
	PredMPKI, ExactMPKI float64
}

// EstimateStudy is the estimate artifact: predicted-vs-exact hit rate
// and MPKI across a capacity ladder of SRAM-class LLCs, measuring the
// profile's error on one workload.
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
// answering all of them.
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
	// varies, so every difference in the table is the profile's.
	eng := cfg.engineOrNew()
	jobs := make([]engine.Job, len(caps))
	for i, c := range caps {
		m := reference.SRAMBaseline()
		m.CapacityBytes = c
		m.Name = fmt.Sprintf("SRAM@%s", fmtBytes(c))
		sysCfg := system.Gainestown(m)
		sysCfg.ModelWriteContention = cfg.WriteContention
		jobs[i] = engine.StreamJob(p, cfg.Opts, sysCfg)
	}
	exact, err := eng.RunAll(ctx, jobs)
	if err != nil {
		return nil, err
	}

	tmpl := system.Gainestown(reference.SRAMBaseline())
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
		hits, ok := prof.HitsFor(sets, tmpl.LLCWays)
		if !ok {
			return nil, fmt.Errorf("sweep: profile %s lacks geometry %d sets × %d ways", prof.Name, sets, tmpl.LLCWays)
		}
		sim := exact[i]
		row := EstimateRow{
			CapacityBytes: c,
			Sets:          sets,
			Ways:          tmpl.LLCWays,
			PredHits:      hits,
			ExactHits:     sim.LLC.Hits,
			ExactMPKI:     sim.LLCMPKI(),
		}
		if sim.Instructions > 0 {
			row.PredMPKI = float64(prof.Demand-hits) / float64(sim.Instructions) * 1000
		}
		if acc := sim.LLC.Accesses(); acc > 0 {
			row.ExactHitRate = float64(sim.LLC.Hits) / float64(acc)
		}
		if prof.Demand > 0 {
			row.PredHitRate = float64(hits) / float64(prof.Demand)
		}
		row.AbsRateErr = math.Abs(row.PredHitRate-row.ExactHitRate) * 100
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
		fmt.Sprintf("Profile validation: %s, %d threads (reuse-distance profile vs exact simulation; mean |Δhit| %.3f pp, max %.3f pp)",
			s.Workload, s.Threads, s.MeanAbsRateErr, s.MaxAbsRateErr),
		"LLC", "geometry", "hit% prof", "hit% sim", "|Δ| pp", "MPKI prof", "MPKI sim")
	for _, r := range s.Rows {
		t.AddRowf(fmtBytes(r.CapacityBytes), fmt.Sprintf("%d×%d", r.Sets, r.Ways),
			r.PredHitRate*100, r.ExactHitRate*100, r.AbsRateErr,
			r.PredMPKI, r.ExactMPKI)
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
