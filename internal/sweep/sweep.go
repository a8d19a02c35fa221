// Package sweep is the experiment harness that regenerates the paper's
// evaluation artifacts: it simulates each benchmark's trace against
// every LLC model in both the fixed-capacity and fixed-area
// configurations (Section V), normalizes to the SRAM baseline, sweeps core
// counts (Section V-C), and feeds the results through the correlation
// framework (Section VI, Figure 4).
//
// All simulations run through an internal/engine Engine: every entry
// point takes a context.Context first (cancellation aborts in-flight
// simulations promptly) and Config can carry a shared Engine so repeated
// design points — most prominently the SRAM baseline shared by every
// figure — are simulated exactly once across calls. Each study submits
// its design points as generator-backed jobs (engine.StreamJob), in as
// few RunAll batches as its data dependencies allow: the engine's
// workers generate the traces, each distinct trace once per batch, and a
// design point answered from the cache generates nothing.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"nvmllc/internal/engine"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// Config controls a sweep run.
type Config struct {
	// Opts shapes trace generation (length, seed). Threads is set by the
	// harness per experiment.
	Opts workload.Options
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	// Ignored when Engine is set — the engine's own bound wins.
	Parallelism int
	// WriteContention turns on LLC bank write contention (the ablation of
	// the paper's writes-off-critical-path assumption).
	WriteContention bool
	// Engine optionally supplies a shared experiment engine, so the
	// result cache and statistics span multiple sweep calls. When nil, a
	// private engine is built per call from the fields below.
	Engine *engine.Engine
	// DisableCache turns off result memoization in the private engine
	// (ignored when Engine is set).
	DisableCache bool
	// Progress streams engine events from the private engine (ignored
	// when Engine is set; install the callback on the shared engine
	// instead).
	Progress func(engine.Event)
	// Telemetry optionally receives sweep-level spans (one per figure,
	// table or study, tagged with its identity) and, via the engine,
	// per-design-point metrics. When Engine is set the shared engine's
	// own registry instruments the simulations; this field still drives
	// the sweep spans.
	Telemetry *telemetry.Registry
	// Estimator, when non-nil, switches figure/core-sweep/degradation
	// grids to the single-pass reuse-distance fast path (estimate.go):
	// exact simulation only for the SRAM anchor and Estimator.PinExact
	// models, profile-derived estimates (Result.Estimated) for the rest.
	// Nil — the default — keeps every sweep exactly simulated,
	// byte-identical to the pre-estimator behavior.
	Estimator *Estimator
}

// engineOrNew returns the configured shared engine, or builds a private
// one from the config's knobs.
func (c Config) engineOrNew() *engine.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	var opts []engine.Option
	if c.Parallelism > 0 {
		opts = append(opts, engine.WithParallelism(c.Parallelism))
	}
	if c.DisableCache {
		opts = append(opts, engine.WithoutCache())
	}
	if c.Progress != nil {
		opts = append(opts, engine.WithProgress(c.Progress))
	}
	if c.Telemetry != nil {
		opts = append(opts, engine.WithTelemetry(c.Telemetry))
	}
	return engine.New(opts...)
}

// workers is the concurrency bound of work the sweep runs outside the
// engine: the shared engine's worker count, else Parallelism, else
// GOMAXPROCS.
func (c Config) workers() int {
	if c.Engine != nil {
		return c.Engine.Workers()
	}
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// startSpan opens a sweep-level span and threads it through the returned
// context, so the engine's per-design-point "simulate" spans parent to
// it. attrs are alternating key/value pairs tagging the span's identity
// (figure title, workload, LLC). Nil-safe: with no Telemetry configured
// everything degrades to no-ops.
func (c Config) startSpan(ctx context.Context, name string, attrs ...string) (context.Context, *telemetry.Span) {
	span := c.Telemetry.StartSpan(name, telemetry.SpanFromContext(ctx))
	for i := 0; i+1 < len(attrs); i += 2 {
		span.SetAttr(attrs[i], attrs[i+1])
	}
	return telemetry.ContextWithSpan(ctx, span), span
}

// ErrNoCell reports a Cell lookup for a workload/LLC pair the figure does
// not contain.
var ErrNoCell = errors.New("sweep: no such figure cell")

// FigureResult holds one of the paper's bar-chart figures: per-workload,
// per-NVM speedup, LLC energy and ED²P, all normalized to the SRAM
// baseline (value 1.0 = SRAM).
type FigureResult struct {
	// Title labels the figure (e.g. "Figure 1a: fixed-capacity,
	// single-threaded").
	Title string
	// Workloads are the row labels in Table V order.
	Workloads []string
	// LLCs are the column labels (the ten NVM LLC names).
	LLCs []string
	// Speedup, Energy and ED2P are indexed [workload][llc].
	Speedup, Energy, ED2P [][]float64
	// Raw holds every simulation result keyed by workload then LLC name
	// (including "SRAM"). On a partial run it also carries rows for
	// workloads that did not complete normalization.
	Raw map[string]map[string]*system.Result

	// workloadIdx and llcIdx are name→index maps built at construction so
	// Cell is O(1).
	workloadIdx, llcIdx map[string]int
}

// newFigureResult builds the empty figure with its column index.
func newFigureResult(title string, models []nvsim.LLCModel, raw map[string]map[string]*system.Result) *FigureResult {
	fig := &FigureResult{
		Title:       title,
		Raw:         raw,
		workloadIdx: make(map[string]int),
		llcIdx:      make(map[string]int, len(models)),
	}
	for _, m := range models {
		if m.Name != "SRAM" {
			fig.llcIdx[m.Name] = len(fig.LLCs)
			fig.LLCs = append(fig.LLCs, m.Name)
		}
	}
	return fig
}

// addRow appends one workload's normalized row and indexes it.
func (f *FigureResult) addRow(w string, sp, en, ed []float64) {
	f.workloadIdx[w] = len(f.Workloads)
	f.Workloads = append(f.Workloads, w)
	f.Speedup = append(f.Speedup, sp)
	f.Energy = append(f.Energy, en)
	f.ED2P = append(f.ED2P, ed)
}

// Cell returns the normalized triple for a workload/LLC pair. Unknown
// pairs (including workloads dropped from a partial run) report ErrNoCell.
func (f *FigureResult) Cell(workloadName, llc string) (speedup, energy, ed2p float64, err error) {
	wi, okW := f.workloadIdx[workloadName]
	li, okL := f.llcIdx[llc]
	if !okW || !okL {
		return 0, 0, 0, fmt.Errorf("%w: %s/%s", ErrNoCell, workloadName, llc)
	}
	return f.Speedup[wi][li], f.Energy[wi][li], f.ED2P[wi][li], nil
}

// RunFigure simulates the named workloads against the model set (which
// must include the SRAM baseline) and returns SRAM-normalized results.
//
// On failure of individual design points it returns the partial figure —
// normalized rows for every workload whose full row completed, plus all
// completed raw results — together with every job error joined via
// errors.Join, so callers can render what finished.
func RunFigure(ctx context.Context, title string, models []nvsim.LLCModel, names []string, cfg Config) (*FigureResult, error) {
	ctx, span := cfg.startSpan(ctx, "figure", "title", title)
	defer span.End()
	var sramIdx = -1
	for i, m := range models {
		if m.Name == "SRAM" {
			sramIdx = i
		}
	}
	if sramIdx < 0 {
		return nil, fmt.Errorf("sweep: model set lacks the SRAM baseline")
	}

	points := make([]gridPoint, 0, len(names))
	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		points = append(points, gridPoint{wl: p, opts: cfg.Opts, models: models})
	}
	rows, runErr := runPoints(ctx, cfg.engineOrNew(), points, cfg)
	raw := make(map[string]map[string]*system.Result, len(names))
	for i, name := range names {
		raw[name] = rows[i]
	}

	fig := newFigureResult(title, models, raw)
	for _, w := range names {
		base := raw[w]["SRAM"]
		if base == nil {
			if runErr == nil {
				runErr = fmt.Errorf("sweep: missing SRAM baseline result for %s", w)
			}
			continue
		}
		var sp, en, ed []float64
		complete := true
		for _, llc := range fig.LLCs {
			r := raw[w][llc]
			if r == nil {
				complete = false
				break
			}
			sp = append(sp, base.TimeNS/r.TimeNS)
			en = append(en, r.LLCEnergyJ()/base.LLCEnergyJ())
			ed = append(ed, r.ED2P()/base.ED2P())
		}
		if complete {
			fig.addRow(w, sp, en, ed)
		}
	}
	if runErr != nil {
		return fig, runErr
	}
	return fig, nil
}

// gridPoint is one trace of a design-point grid: workload wl generated
// with opts, simulated against every model on cores cores (0 keeps the
// Gainestown quad-core).
type gridPoint struct {
	wl     workload.Profile
	opts   workload.Options
	cores  int
	models []nvsim.LLCModel
}

// config is the simulated machine for one of the point's models.
func (pt gridPoint) config(m nvsim.LLCModel, cfg Config) system.Config {
	sysCfg := system.Gainestown(m)
	sysCfg.ModelWriteContention = cfg.WriteContention
	if pt.cores > 0 {
		sysCfg = sysCfg.WithCores(pt.cores)
	}
	return sysCfg
}

// runAll simulates every (point, model) pair as one engine batch. Jobs
// are submitted model by model, so the workers' first jobs generate
// distinct traces side by side and later ones replay them.
//
// The returned maps, aligned with points and keyed by LLC name, hold
// every design point that completed, even when the joined error is
// non-nil — callers decide what to do with partial grids.
func runAll(ctx context.Context, eng *engine.Engine, points []gridPoint, cfg Config) ([]map[string]*system.Result, error) {
	most := 0
	for _, pt := range points {
		most = max(most, len(pt.models))
	}
	var jobs []engine.Job
	var owner []int // jobs[i] belongs to points[owner[i]]
	for mi := 0; mi < most; mi++ {
		for pi, pt := range points {
			if mi < len(pt.models) {
				jobs = append(jobs, engine.StreamJob(pt.wl, pt.opts, pt.config(pt.models[mi], cfg)))
				owner = append(owner, pi)
			}
		}
	}
	results, err := eng.RunAll(ctx, jobs)
	raw := make([]map[string]*system.Result, len(points))
	for i, pt := range points {
		raw[i] = make(map[string]*system.Result, len(pt.models))
	}
	for i, r := range results {
		if r != nil {
			raw[owner[i]][jobs[i].LLCName()] = r
		}
	}
	return raw, err
}

// workloadNames splits Table V's workloads by threading.
func workloadNames(multiThreaded bool) []string {
	var out []string
	for _, w := range reference.Workloads() {
		if w.MultiThreaded == multiThreaded {
			out = append(out, w.Name)
		}
	}
	return out
}

// Figure1a regenerates Figure 1a: fixed-capacity, single-threaded.
func Figure1a(ctx context.Context, cfg Config) (*FigureResult, error) {
	return RunFigure(ctx, "Figure 1a: fixed-capacity LLC, single-threaded workloads",
		reference.FixedCapacityModels(), workloadNames(false), cfg)
}

// Figure1b regenerates Figure 1b: fixed-capacity, multi-threaded.
func Figure1b(ctx context.Context, cfg Config) (*FigureResult, error) {
	return RunFigure(ctx, "Figure 1b: fixed-capacity LLC, multi-threaded workloads",
		reference.FixedCapacityModels(), workloadNames(true), cfg)
}

// Figure2a regenerates Figure 2a: fixed-area, single-threaded.
func Figure2a(ctx context.Context, cfg Config) (*FigureResult, error) {
	return RunFigure(ctx, "Figure 2a: fixed-area LLC, single-threaded workloads",
		reference.FixedAreaModels(), workloadNames(false), cfg)
}

// Figure2b regenerates Figure 2b: fixed-area, multi-threaded.
func Figure2b(ctx context.Context, cfg Config) (*FigureResult, error) {
	return RunFigure(ctx, "Figure 2b: fixed-area LLC, multi-threaded workloads",
		reference.FixedAreaModels(), workloadNames(true), cfg)
}
