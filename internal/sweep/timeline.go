package sweep

// Time-resolved phase study: the paper's LLC designs replayed with
// epoch sampling on, so the per-phase behavior a single end-of-run
// aggregate hides — write bursts, MPKI swings, spatial wear skew —
// becomes a table. The companion of the degradation artifact: where
// that asks "what is the cache worth after N years", this asks "which
// phases of the workload age it".

import (
	"context"
	"fmt"

	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/tablefmt"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// TimelineOptions parameterizes the study; the zero value selects the
// defaults (workload "is" — the most write-intensive NAS kernel — on
// one LLC per wearing NVM class plus the SRAM control, the degradation
// artifact's set).
type TimelineOptions struct {
	// Workload is the trace replayed per LLC (default "is").
	Workload string
	// LLCs are the fixed-capacity models to sample (default Kang_P,
	// Chung_S, SRAM).
	LLCs []string
	// Points bounds the retained epochs per design
	// (default system.DefaultTimelinePoints).
	Points int
}

// DesignTimeline is one LLC's sampled run.
type DesignTimeline struct {
	// LLC names the model.
	LLC string
	// Timeline is the per-epoch series; Phases its condensed summary.
	Timeline *telemetry.TimelineSnapshot
	Phases   *system.PhaseStats
	// Wear carries the end-of-run wear statistics (per-set CoV/Gini
	// included); Heatmap the per-set writes×accesses grid.
	Wear    *system.WearStats
	Heatmap *telemetry.Heatmap
	// Result is the full simulation outcome, for programmatic consumers.
	Result *system.Result
}

// TimelineStudy is the artifact: one sampled design per LLC over the
// same workload, so their phase structures line up epoch for epoch.
type TimelineStudy struct {
	Workload string
	Designs  []DesignTimeline
}

// Timeline runs the study through the engine: wear-tracked, epoch-
// sampled jobs, one per LLC. The cache key includes the timeline config,
// so each sampled job is a design point of its own: a prior sweep's
// timeline-less result of the same machine never answers it, and a
// repeated study with the same point budget rides the cache.
func Timeline(ctx context.Context, cfg Config, opts TimelineOptions) (*TimelineStudy, error) {
	if opts.Workload == "" {
		opts.Workload = "is"
	}
	if len(opts.LLCs) == 0 {
		opts.LLCs = []string{"Kang_P", "Chung_S", "SRAM"}
	}
	ctx, span := cfg.startSpan(ctx, "timeline", "workload", opts.Workload)
	defer span.End()

	p, err := workload.ByName(opts.Workload)
	if err != nil {
		return nil, err
	}
	models := reference.FixedCapacityModels()
	eng := cfg.engineOrNew()

	jobs := make([]engine.Job, 0, len(opts.LLCs))
	for _, name := range opts.LLCs {
		model, err := reference.ModelByName(models, name)
		if err != nil {
			return nil, err
		}
		sysCfg := system.Gainestown(model)
		sysCfg.ModelWriteContention = cfg.WriteContention
		sysCfg.TrackWear = true
		sysCfg.Timeline = &system.TimelineConfig{Points: opts.Points}
		jobs = append(jobs, engine.StreamJob(p, cfg.Opts, sysCfg))
	}
	results, err := eng.RunAll(ctx, jobs)
	if err != nil {
		return nil, err
	}

	study := &TimelineStudy{Workload: opts.Workload}
	for i, name := range opts.LLCs {
		r := results[i]
		if r == nil || r.Timeline == nil {
			return nil, fmt.Errorf("sweep: timeline run for %s produced no timeline", name)
		}
		study.Designs = append(study.Designs, DesignTimeline{
			LLC:      name,
			Timeline: r.Timeline,
			Phases:   r.Phases(),
			Wear:     r.Wear,
			Heatmap:  r.WearHeatmap,
			Result:   r,
		})
	}
	return study, nil
}

// runTimelineArtifact is the registry entry point.
func runTimelineArtifact(ctx context.Context, cfg Config) (*ArtifactResult, error) {
	study, err := Timeline(ctx, cfg, TimelineOptions{})
	if err != nil {
		return nil, err
	}
	return &ArtifactResult{Value: study, Renderers: timelineRenderers(study)}, nil
}

// timelineRenderers prints the phase summary across designs, a shared
// per-epoch write/MPKI table (every design samples the same instruction
// boundaries, so the epochs line up), and one per-set wear band heatmap
// per design.
func timelineRenderers(study *TimelineStudy) []Renderer {
	var out []Renderer

	summary := tablefmt.New(
		fmt.Sprintf("Time-resolved phase summary: %s", study.Workload),
		"LLC", "epochs", "LLC writes", "write-rate CoV", "peak/mean wear",
		"set-write CoV", "set Gini", "MPKI min..max")
	for _, d := range study.Designs {
		ph := d.Phases
		if ph == nil {
			continue
		}
		var setCoV, setGini float64
		var totalWrites uint64
		if d.Wear != nil {
			setCoV, setGini = d.Wear.SetWriteCoV, d.Wear.SetWriteGini
			totalWrites = d.Wear.TotalWrites
		}
		summary.AddRowf(d.LLC, ph.Epochs, totalWrites, ph.WriteRateCoV, ph.PeakToMeanWear,
			setCoV, setGini, fmt.Sprintf("%.2f..%.2f", ph.MPKIMin, ph.MPKIMax))
	}
	out = append(out, summary)

	out = append(out,
		epochTable(study, "LLC writes per epoch", system.TimelineLLCWrites, false),
		epochTable(study, "LLC MPKI per epoch", system.TimelineLLCMisses, true))

	for _, d := range study.Designs {
		if hm := bandHeatmap(d); hm != nil {
			out = append(out, hm)
		}
	}
	return out
}

// epochRenderRows bounds the rendered per-epoch tables; the full
// resolution stays in the study value and the CSV export.
const epochRenderRows = 16

// epochTable builds a rows=epochs × cols=LLCs table of the named delta
// series, downsampled for the terminal. asMPKI divides by the epoch's
// instruction width ×1000.
func epochTable(study *TimelineStudy, title, field string, asMPKI bool) Renderer {
	headers := []string{"instructions"}
	type col struct {
		series []float64
		x      []uint64
	}
	cols := make([]col, 0, len(study.Designs))
	for _, d := range study.Designs {
		headers = append(headers, d.LLC)
		ds := d.Timeline.Downsample(epochRenderRows)
		cols = append(cols, col{series: ds.SeriesOf(field), x: ds.X})
	}
	t := tablefmt.New(fmt.Sprintf("%s: %s", title, study.Workload), headers...)
	if len(cols) == 0 || len(cols[0].x) == 0 {
		return t
	}
	for i := range cols[0].x {
		row := make([]interface{}, 0, len(headers))
		row = append(row, cols[0].x[i])
		for _, c := range cols {
			if i >= len(c.series) {
				row = append(row, "")
				continue
			}
			v := c.series[i]
			if asMPKI {
				prev := uint64(0)
				if i > 0 {
					prev = c.x[i-1]
				}
				if width := float64(c.x[i] - prev); width > 0 {
					v = v / width * 1000
				}
			}
			row = append(row, v)
		}
		t.AddRowf(row...)
	}
	return t
}

// bandHeatmapRows is the rendered set-band count per design.
const bandHeatmapRows = 8

// bandHeatmap folds a design's per-set grid into bands and renders it
// as a tablefmt heatmap (nil when the design has no grid — SRAM still
// has one, wear tracking is technology-agnostic).
func bandHeatmap(d DesignTimeline) Renderer {
	if d.Heatmap == nil || d.Heatmap.Rows == 0 {
		return nil
	}
	bands := d.Heatmap.Downsample(bandHeatmapRows)
	setsPerBand := (d.Heatmap.Rows + bands.Rows - 1) / bands.Rows
	hm := &tablefmt.Heatmap{
		Title:    fmt.Sprintf("Per-set wear bands: %s (%d sets per band)", d.LLC, setsPerBand),
		ColNames: bands.Cols,
	}
	for r := 0; r < bands.Rows; r++ {
		hm.RowNames = append(hm.RowNames, fmt.Sprintf("sets %d-%d", r*setsPerBand, min((r+1)*setsPerBand, d.Heatmap.Rows)-1))
		row := make([]float64, len(bands.Cols))
		for c := range bands.Cols {
			row[c] = bands.At(r, c)
		}
		hm.Cells = append(hm.Cells, row)
	}
	return hm
}
