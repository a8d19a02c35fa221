package engine

// Feature jobs: PRISM characterization (the paper's Table VI features)
// as engine work. A FeatureJob names a trace, as a Job does, plus the
// prism.Config to characterize it with. Characterize answers a batch on
// RunAll's worker pool. Each trace is read through the sharing layer, so
// it is generated once and stays resident for the simulation jobs over
// the same (workload, options); a trace over the share budget streams
// from its own source instead. Features are memoized in memory under
// (trace, config). A feature job is not a design point: it emits no
// progress Event and counts only in Stats.Features and FeatureHits.

import (
	"context"
	"fmt"

	"nvmllc/internal/prism"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// featureChunk is the number of accesses a characterization reads per
// chunk.
const featureChunk = 4096

// FeatureJob is one characterization request: a trace plus the PRISM
// configuration to measure it with. As on a cacheable Job, Source must
// replay workload.NewGenerator over (Workload, TraceOpts): the feature
// cache and the share layer key on those two fields alone.
type FeatureJob struct {
	// Workload is the trace/workload name.
	Workload string
	// TraceOpts are the resolved generation options the Source replays.
	TraceOpts workload.Options
	// Config selects the local-entropy granularity.
	Config prism.Config
	// Source supplies the trace as a chunked stream (same contract as
	// Job.Source).
	Source func() (trace.ChunkSource, error)
}

// StreamFeatureJob builds the generator-backed feature job for a named
// workload. Like StreamJob, it carries the resolved options, so it
// shares its trace with every simulation job over the same one.
func StreamFeatureJob(p workload.Profile, opts workload.Options, pc prism.Config) FeatureJob {
	opts = p.Resolve(opts)
	return FeatureJob{
		Workload:  p.Name,
		TraceOpts: opts,
		Config:    pc,
		Source: func() (trace.ChunkSource, error) {
			return workload.NewGenerator(p, opts)
		},
	}
}

// featureKey is a feature job's memo key: its trace and configuration.
type featureKey struct {
	trace traceID
	cfg   prism.Config
}

// job is the simulation-job view of fj's trace, for the sharing layer.
func (fj FeatureJob) job() Job {
	return Job{Workload: fj.Workload, TraceOpts: fj.TraceOpts, Source: fj.Source}
}

// Characterize answers every feature job on the engine's worker pool and
// returns the features aligned with jobs (zero for failed jobs) plus
// every failure joined, as RunAll does. After a cancellation no job
// starts, and each one left fails with ctx.Err().
func (e *Engine) Characterize(ctx context.Context, jobs []FeatureJob) ([]prism.Features, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]prism.Features, len(jobs))
	errs := make([]error, len(jobs))
	e.pool(ctx, len(jobs), func(i int) {
		out[i], errs[i] = e.characterize(ctx, jobs[i])
	}, func(i int, err error) {
		errs[i] = err
	})
	return out, joinJobErrors(errs, func(i int) string { return "characterize " + jobs[i].Workload })
}

// characterize answers one feature job, from the feature cache when
// possible; identical concurrent requests share one measurement.
func (e *Engine) characterize(ctx context.Context, fj FeatureJob) (prism.Features, error) {
	tid, cacheable := shareKey(fj.job())
	if e.cacheOff || !cacheable {
		return e.measureFeatures(ctx, fj)
	}
	f, hit, err := e.features.do(ctx, featureKey{tid, fj.Config}, func() (prism.Features, error) {
		return e.measureFeatures(ctx, fj)
	})
	if hit {
		e.featureHits.Add(1)
		e.reg.Counter("engine_features_total", "outcome", "cached").Inc()
	}
	return f, err
}

// measureFeatures characterizes the job's trace and counts the outcome.
func (e *Engine) measureFeatures(ctx context.Context, fj FeatureJob) (prism.Features, error) {
	span := e.reg.StartSpan("characterize", telemetry.SpanFromContext(ctx))
	span.SetAttr("workload", fj.Workload)
	defer span.End()
	f, err := e.featureSource(ctx, fj)
	if err != nil {
		e.reg.Counter("engine_features_total", "outcome", "failed").Inc()
		span.SetAttr("error", err.Error())
		return prism.Features{}, err
	}
	e.featured.Add(1)
	e.reg.Counter("engine_features_total", "outcome", "measured").Inc()
	return f, nil
}

// featureSource obtains the job's stream — share-layer slice or the
// job's own source — and streams it through a prism.Profiler, checking
// ctx between chunks. The profiler's tables come from the engine's
// feature scratch pool, viewed at the trace's length.
func (e *Engine) featureSource(ctx context.Context, fj FeatureJob) (prism.Features, error) {
	if fj.Source == nil {
		return prism.Features{}, fmt.Errorf("engine: feature job %s has no trace source", fj.Workload)
	}
	src, err := fj.Source()
	if err != nil {
		return prism.Features{}, err
	}
	src, release, err := e.sharedSource(fj.job(), src, 1)
	if err != nil {
		return prism.Features{}, err
	}
	defer release()
	sc, _ := e.featScratch.Get().(*prism.Scratch)
	if sc == nil {
		sc = new(prism.Scratch)
	}
	defer e.featScratch.Put(sc)
	p := prism.NewProfilerIn(fj.Config, src.Meta().Accesses, sc)
	buf := make([]trace.Access, featureChunk)
	for {
		if err := ctx.Err(); err != nil {
			return prism.Features{}, err
		}
		n, err := src.ReadChunk(buf)
		if err != nil {
			return prism.Features{}, err
		}
		if n == 0 {
			return p.Features(), nil
		}
		for _, a := range buf[:n] {
			p.Observe(a)
		}
	}
}
