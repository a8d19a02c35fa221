// Package engine is the shared experiment-execution engine behind the
// sweep harness and the CLIs: every (workload, LLC model, system config)
// design point of the paper's evaluation grid runs through one Engine,
// which provides
//
//   - context-first cancellation — a cancelled context aborts in-flight
//     simulations in bounded time (the system simulator checks the
//     context inside its hot loop);
//   - an in-memory, concurrency-safe result cache keyed by a
//     deterministic hash of (workload name, trace options, system
//     config), so the SRAM baseline and repeated design points are
//     simulated once across figures and sweeps;
//   - per-run observability — atomic counters snapshotable as a Stats
//     struct and streamed through an optional progress callback;
//   - aggregated error reporting: RunAll returns every job's failure
//     joined with errors.Join alongside the partial results, instead of
//     first-error-wins.
//
// An Engine is safe for concurrent use; one instance can (and should) be
// shared across many sweeps so the cache spans them.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// Job is one design point: a trace source and the machine configuration
// to simulate it on. Workload and TraceOpts identify the trace's
// provenance and, with Config, form the cache key — a Source that does
// not replay workload.NewGenerator over (Workload, TraceOpts), such as a
// hand-built trace wrapped in trace.NewTraceSource, must disable caching
// via NoCache. StreamJob builds the generator-backed form, with TraceOpts
// resolved.
type Job struct {
	// Workload is the trace/workload name.
	Workload string
	// TraceOpts are the resolved generation options the Source replays.
	TraceOpts workload.Options
	// Config is the simulated machine.
	Config system.Config
	// Source supplies the trace as a chunked stream: the factory is called
	// once per actual simulation (cache hits skip it) and must return a
	// fresh, unconsumed source each time — sources are single-pass and
	// owned by the run (see system.RunStream). Generation happens inside
	// the worker's simulate call, and jobs over the same (Workload,
	// TraceOpts) materialize the trace once while it stays within the
	// engine's trace budget (share.go).
	Source func() (trace.ChunkSource, error)
	// NoCache forces a fresh simulation and keeps the result out of the
	// cache (for traces whose provenance the key cannot capture).
	NoCache bool
}

// StreamJob builds the generator-backed job for a named workload: the
// generator is constructed per simulation from the (profile, options)
// pair the cache key names. The job carries the resolved options
// (workload.Profile.Resolve), so every spelling of one trace — Threads 0
// or 4 on a multi-threaded profile, any Threads on a single-threaded one
// — keys, shares and memoizes as that one trace.
func StreamJob(p workload.Profile, opts workload.Options, cfg system.Config) Job {
	opts = p.Resolve(opts)
	return Job{
		Workload:  p.Name,
		TraceOpts: opts,
		Config:    cfg,
		Source: func() (trace.ChunkSource, error) {
			return workload.NewGenerator(p, opts)
		},
	}
}

// LLCName labels the job's LLC for error and progress reporting.
func (j Job) LLCName() string {
	if j.Config.Hybrid != nil {
		return fmt.Sprintf("hybrid(%s+%s)", j.Config.Hybrid.SRAM.Name, j.Config.Hybrid.NVM.Name)
	}
	return j.Config.LLC.Name
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Simulated counts fresh simulations actually executed; Cached counts
	// jobs answered from the result cache (the in-memory map or, when a
	// CacheStore is installed, the persistent tier); Failed counts
	// simulations that returned an error (including cancellation).
	Simulated, Cached, Failed uint64
	// Upgraded counts timeline upgrades: a sampled job that found a
	// cached timeline-less result and re-simulated to enrich it. The
	// re-simulation is real work (its accesses and wall time are
	// counted), but it answers the same submission the cache hit would
	// have, so it is kept out of Simulated — one submitted job increments
	// exactly one of the four outcome counters, and Stats.Jobs() equals
	// submissions.
	Upgraded uint64
	// Accesses is the total trace accesses simulated (cache hits excluded).
	Accesses uint64
	// SimWallNS is the summed wall-clock time spent inside simulations,
	// across all workers.
	SimWallNS int64
	// TraceGens counts trace materializations the sharing layer performed
	// (share.go); TraceShared counts simulations answered from an already
	// materialized shared trace instead of generating their own. A sweep
	// of N design points over one workload shows TraceGens=1,
	// TraceShared=N-1.
	TraceGens, TraceShared uint64
	// TraceRetainedBytes is the budget the sharing layer's materialized
	// traces hold right now, in use or retained for later jobs.
	TraceRetainedBytes int64
	// Profiles counts reuse-distance profiling passes actually executed
	// (profilejob.go); ProfileHits counts profile requests answered from
	// the profile cache (memory or store). Profile jobs are a separate
	// request stream from simulation jobs — neither counter participates
	// in Jobs(), which stays equal to simulation submissions.
	Profiles, ProfileHits uint64
}

// Jobs is the total design points answered: simulated, upgraded, cached
// or failed — exactly one increment per submission.
func (s Stats) Jobs() uint64 { return s.Simulated + s.Upgraded + s.Cached + s.Failed }

// String renders a one-line progress summary.
func (s Stats) String() string {
	out := fmt.Sprintf("%d simulated, %d cached, %d failed, %.2fM accesses, %.1fs sim wall",
		s.Simulated, s.Cached, s.Failed, float64(s.Accesses)/1e6,
		time.Duration(s.SimWallNS).Seconds())
	if s.Upgraded > 0 {
		out = fmt.Sprintf("%s, %d upgraded", out, s.Upgraded)
	}
	if s.TraceShared > 0 {
		out = fmt.Sprintf("%s, %d traces generated / %d shared", out, s.TraceGens, s.TraceShared)
	}
	if s.TraceRetainedBytes > 0 {
		out = fmt.Sprintf("%s, %.1f MiB traces held", out, float64(s.TraceRetainedBytes)/(1<<20))
	}
	if s.Profiles+s.ProfileHits > 0 {
		out = fmt.Sprintf("%s, %d profiled / %d profile hits", out, s.Profiles, s.ProfileHits)
	}
	return out
}

// Event is one progress notification: a design point was answered.
type Event struct {
	// Workload and LLC identify the design point.
	Workload, LLC string
	// Key is the design point's deterministic cache key ("" when the job
	// is uncacheable).
	Key string
	// Cached marks a cache hit (WallNS is then zero).
	Cached bool
	// Upgraded marks a timeline upgrade: the design point had a cached
	// timeline-less result and was re-simulated with sampling on. At most
	// one of Cached and Upgraded is set, and an upgrade emits exactly one
	// event (kind "upgrade", not a second "simulate").
	Upgraded bool
	// Err is the job's failure, nil on success.
	Err error
	// Result is the design point's outcome (nil on failure). Manifest
	// writers read per-level statistics from it; treat it as immutable.
	Result *system.Result
	// WallNS is the wall-clock time the simulation took.
	WallNS int64
	// Stats is the engine snapshot after this job.
	Stats Stats
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism bounds concurrent simulations (default GOMAXPROCS).
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallelism = n }
}

// WithoutCache disables result memoization (every job simulates).
func WithoutCache() Option {
	return func(e *Engine) { e.cacheOff = true }
}

// WithProgress streams an Event after every answered job. The callback
// must be safe for concurrent use; it is invoked from worker goroutines.
func WithProgress(fn func(Event)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithTelemetry publishes engine activity into the registry: job
// counters (engine_jobs_total by outcome), per-job wall-time and
// LLC-hit-count histograms, and one span per simulated design point
// (named "simulate", tagged with workload and llc, parented to the span
// carried by the job's context, e.g. a sweep's figure span).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(e *Engine) { e.reg = reg }
}

// WithTimeline installs a default time-resolved sampling config on every
// job that does not carry its own, so a whole sweep gains epoch-sampled
// Results without touching each job builder. Like WithTelemetry this is
// propagation only — the cache key already excludes Config.Timeline.
func WithTimeline(tc system.TimelineConfig) Option {
	return func(e *Engine) { e.timeline = &tc }
}

// WithStore installs a persistent second cache tier behind the in-memory
// result map: an in-memory miss consults the store before simulating,
// and every successful simulation (upgrades included) is written back,
// so results survive process restarts and can be shipped between
// machines. Store hits count as Cached. Store failures never fail a job
// — a corrupt or unreadable entry degrades to re-simulation.
func WithStore(s CacheStore) Option {
	return func(e *Engine) { e.store = s }
}

// entry is one cache slot; done closes when the computing goroutine
// finishes, so concurrent requests for the same key wait instead of
// duplicating the simulation.
type entry struct {
	done chan struct{}
	res  *system.Result
	err  error
}

// Engine executes simulation jobs with caching, bounded parallelism and
// cancellation.
type Engine struct {
	parallelism int
	cacheOff    bool
	progress    func(Event)
	reg         *telemetry.Registry
	timeline    *system.TimelineConfig
	store       CacheStore
	shareOff    bool
	shareLimit  int64

	mu      sync.Mutex
	results map[string]*entry

	// profMu/profiles memoize reuse-distance profiles (profilejob.go),
	// a separate singleflight domain from simulation results.
	profMu   sync.Mutex
	profiles map[string]*profEntry

	// shares memoizes generated traces across jobs (share.go), referenced
	// or retained; idle lists the retained ones, most recently used
	// first. retainedBytes is the budget all of them hold: written under
	// shareMu, atomic so Stats reads it without the lock.
	shareMu       sync.Mutex
	shares        map[string]*shareEntry
	idle          list.List
	retainedBytes atomic.Int64

	// scratch is the free list of per-run simulator buffers, one per
	// worker. Each lives for the engine's lifetime and keeps the storage
	// of the largest run it served, so steady-state simulation is
	// allocation-free; a run beyond Workers() concurrent ones borrows a
	// transient Scratch.
	scratch chan *system.Scratch

	simulated   atomic.Uint64
	upgraded    atomic.Uint64
	cached      atomic.Uint64
	failed      atomic.Uint64
	accesses    atomic.Uint64
	simWallNS   atomic.Int64
	traceGens   atomic.Uint64
	traceShared atomic.Uint64
	profiled    atomic.Uint64
	profileHits atomic.Uint64
}

// New creates an engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		results:    make(map[string]*entry),
		shares:     make(map[string]*shareEntry),
		shareLimit: defaultTraceShareLimit,
	}
	for _, o := range opts {
		o(e)
	}
	e.scratch = make(chan *system.Scratch, e.Workers())
	return e
}

// Workers is the effective parallelism bound.
func (e *Engine) Workers() int {
	if e.parallelism > 0 {
		return e.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Simulated:   e.simulated.Load(),
		Upgraded:    e.upgraded.Load(),
		Cached:      e.cached.Load(),
		Failed:      e.failed.Load(),
		Accesses:    e.accesses.Load(),
		SimWallNS:   e.simWallNS.Load(),
		TraceGens:   e.traceGens.Load(),
		TraceShared: e.traceShared.Load(),
		Profiles:    e.profiled.Load(),
		ProfileHits: e.profileHits.Load(),

		TraceRetainedBytes: e.retainedBytes.Load(),
	}
}

// Run answers one design point, from the cache when possible. Identical
// concurrent requests share a single simulation. A cancelled context
// returns promptly with ctx.Err().
func (e *Engine) Run(ctx context.Context, j Job) (*system.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key, cacheable := Key(j)
	if e.cacheOff || !cacheable {
		return e.simulate(ctx, j)
	}
	// A job that wants a timeline cannot be answered by a cached result
	// simulated without one (the key excludes Config.Timeline, so both
	// kinds share an entry). Such a hit retires the stale entry and
	// re-simulates; the richer result re-caches and answers either kind.
	wantTimeline := j.Config.Timeline != nil || e.timeline != nil
	upgrade := false
	for {
		e.mu.Lock()
		ent, ok := e.results[key]
		if !ok {
			ent = &entry{done: make(chan struct{})}
			e.results[key] = ent
			e.mu.Unlock()

			// Consult the persistent tier before simulating. An upgrade
			// skips it: the stored result is the very timeline-less one
			// being retired.
			if !upgrade && e.store != nil {
				if res, hit := e.store.Load(key); hit && (!wantTimeline || res.Timeline != nil) {
					ent.res = res
					close(ent.done)
					e.cached.Add(1)
					e.reg.Counter("engine_jobs_total", "outcome", "cached").Inc()
					e.reg.Counter("engine_store_total", "outcome", "hit").Inc()
					e.emit(j, key, res, true, false, nil, 0)
					return res, nil
				}
				e.reg.Counter("engine_store_total", "outcome", "miss").Inc()
			}

			ent.res, ent.err = e.simulateKeyed(ctx, j, key, upgrade)
			if ent.err != nil {
				// Do not cache failures (typically cancellations): the next
				// run must be able to retry.
				e.mu.Lock()
				delete(e.results, key)
				e.mu.Unlock()
			} else if e.store != nil {
				// Persist best-effort; an unwritable store never fails the
				// job. Upgrades overwrite the stale timeline-less entry.
				if serr := e.store.Store(key, ent.res); serr != nil {
					e.reg.Counter("engine_store_total", "outcome", "write_error").Inc()
				} else {
					e.reg.Counter("engine_store_total", "outcome", "write").Inc()
				}
			}
			close(ent.done)
			return ent.res, ent.err
		}
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if ent.err != nil {
			// The computing goroutine failed and removed the entry;
			// propagate its error (a later Run will retry fresh).
			return nil, ent.err
		}
		if wantTimeline && ent.res.Timeline == nil {
			// Upgrade: drop the timeline-less entry (only if it is still
			// the one we waited on — a concurrent upgrade may have already
			// replaced it) and loop to simulate with sampling on. The
			// re-simulation is accounted as Upgraded, not Simulated: one
			// submission, one outcome.
			e.mu.Lock()
			if cur, ok := e.results[key]; ok && cur == ent {
				delete(e.results, key)
			}
			e.mu.Unlock()
			upgrade = true
			continue
		}
		e.cached.Add(1)
		e.reg.Counter("engine_jobs_total", "outcome", "cached").Inc()
		e.emit(j, key, ent.res, true, false, nil, 0)
		return ent.res, nil
	}
}

// simulate executes the job and updates counters.
func (e *Engine) simulate(ctx context.Context, j Job) (*system.Result, error) {
	return e.simulateKeyed(ctx, j, "", false)
}

// simulateKeyed executes the job. upgrade marks a timeline-upgrade
// re-simulation, which counts toward Stats.Upgraded instead of
// Stats.Simulated and emits an "upgrade" event rather than a second
// "simulate" for the same key.
func (e *Engine) simulateKeyed(ctx context.Context, j Job, key string, upgrade bool) (*system.Result, error) {
	if e.reg != nil && j.Config.Telemetry == nil {
		// Job is a value, so this stays local: every simulation run by an
		// instrumented engine publishes system-level metrics too. The cache
		// key already excludes Telemetry, so identity is unchanged.
		j.Config.Telemetry = e.reg
	}
	if e.timeline != nil && j.Config.Timeline == nil {
		// Same propagation for the engine-wide sampling default; copied so
		// a job can never alias the engine's config.
		tc := *e.timeline
		j.Config.Timeline = &tc
	}
	spanName := "simulate"
	if upgrade {
		spanName = "upgrade"
	}
	span := e.reg.StartSpan(spanName, telemetry.SpanFromContext(ctx))
	span.SetAttr("workload", j.Workload)
	span.SetAttr("llc", j.LLCName())
	scratch := e.takeScratch()
	start := time.Now()
	var res *system.Result
	var err error
	var accesses uint64
	if j.Source != nil {
		res, accesses, err = e.runSource(ctx, j, scratch)
	} else {
		err = fmt.Errorf("engine: job %s on %s has no trace source", j.Workload, j.LLCName())
	}
	wall := time.Since(start).Nanoseconds()
	e.putScratch(scratch)
	e.simWallNS.Add(wall)
	e.reg.Histogram("engine_job_wall_ns").Observe(float64(wall))
	if err != nil {
		e.failed.Add(1)
		e.reg.Counter("engine_jobs_total", "outcome", "failed").Inc()
		span.SetAttr("error", err.Error())
	} else {
		// An upgrade is real simulation work (accesses and wall time
		// count) but answers the same submission a cache hit would have,
		// so it lands in the Upgraded counter and Jobs() stays equal to
		// submissions.
		if upgrade {
			e.upgraded.Add(1)
			e.reg.Counter("engine_jobs_total", "outcome", "upgraded").Inc()
		} else {
			e.simulated.Add(1)
			e.reg.Counter("engine_jobs_total", "outcome", "simulated").Inc()
		}
		e.accesses.Add(accesses)
		e.reg.Histogram("engine_job_llc_hits").Observe(float64(res.LLC.Hits))
	}
	span.End()
	e.emit(j, key, res, false, upgrade, err, wall)
	return res, err
}

// runSource simulates a streamed job, through the sharing layer when the
// job takes part in it.
func (e *Engine) runSource(ctx context.Context, j Job, scratch *system.Scratch) (*system.Result, uint64, error) {
	src, err := j.Source()
	if err != nil {
		return nil, 0, err
	}
	accesses := uint64(src.Meta().Accesses)
	src, release, err := e.sharedSource(j, src)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	res, err := system.RunStreamWith(ctx, j.Config, src, scratch)
	return res, accesses, err
}

// takeScratch hands a run a Scratch from the free list, or a fresh one
// when every worker's is in use.
func (e *Engine) takeScratch() *system.Scratch {
	select {
	case sc := <-e.scratch:
		return sc
	default:
		return new(system.Scratch)
	}
}

// putScratch returns a run's Scratch to the free list; one that does not
// fit (a transient extra) goes to the garbage collector.
func (e *Engine) putScratch(sc *system.Scratch) {
	select {
	case e.scratch <- sc:
	default:
	}
}

func (e *Engine) emit(j Job, key string, res *system.Result, cachedHit, upgraded bool, err error, wallNS int64) {
	if e.progress == nil {
		return
	}
	e.progress(Event{
		Workload: j.Workload,
		LLC:      j.LLCName(),
		Key:      key,
		Cached:   cachedHit,
		Upgraded: upgraded,
		Err:      err,
		Result:   res,
		WallNS:   wallNS,
		Stats:    e.Stats(),
	})
}

// RunAll answers every job with a bounded worker pool. It always returns
// a result slice aligned with jobs — entries are nil for failed jobs —
// plus every failure joined with errors.Join (context errors are folded
// into one), so callers can render what completed.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) ([]*system.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Pin every distinct shareable trace for the batch, so none is
	// evicted before the batch's last job needs it (share.go).
	unpin := e.pinShares(jobs)
	defer unpin()
	results := make([]*system.Result, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, e.Workers())
	var wg sync.WaitGroup
	for i := range jobs {
		// Acquiring the slot here (not in the goroutine) bounds the pool
		// and lets cancellation stop submission immediately.
		select {
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = e.Run(ctx, jobs[i])
		}(i)
	}
	wg.Wait()
	return results, joinJobErrors(jobs, errs)
}

// joinJobErrors aggregates per-job failures, labeling each with its
// design point and collapsing the flood of identical context errors a
// cancellation produces into a single entry.
func joinJobErrors(jobs []Job, errs []error) error {
	var out []error
	ctxSeen := false
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if !ctxSeen {
				out = append(out, err)
				ctxSeen = true
			}
		default:
			out = append(out, fmt.Errorf("engine: %s on %s: %w", jobs[i].Workload, jobs[i].LLCName(), err))
		}
	}
	return errors.Join(out...)
}
