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

	"nvmllc/internal/prism"
	"nvmllc/internal/profile"
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
	// jobs answered from the result cache (the in-memory memo or, when a
	// CacheStore is installed, the persistent tier); Failed counts
	// simulations that returned an error (including cancellation).
	Simulated, Cached, Failed uint64
	// Upgraded is always zero. A job with a timeline keys apart from the
	// same job without one, so no cached result is ever re-simulated to
	// gain a timeline; the field stays only because the benchmark
	// harness (perfbench) still sums it.
	Upgraded uint64
	// Accesses is the total trace accesses simulated, per job (cache hits
	// excluded): a pass answering K jobs adds K times its trace length.
	Accesses uint64
	// SimWallNS is the summed wall-clock time spent inside simulation
	// passes, across all workers.
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
	// Passes counts simulation passes: functional walks of a trace, each
	// answering one or more simulated jobs (RunAll groups
	// single-threaded design points that differ only in timing). SimWallNS
	// counts each pass once, so SimWallNS/Accesses falls as passes answer
	// more jobs.
	Passes uint64
	// Profiles counts reuse-distance profiling passes actually executed
	// (profilejob.go); ProfileHits counts profile requests answered from
	// the profile cache (memory or store). Profile jobs are a separate
	// request stream from simulation jobs — neither counter participates
	// in Jobs(), which stays equal to simulation submissions.
	Profiles, ProfileHits uint64
	// Features counts PRISM characterizations actually measured
	// (featurejob.go); FeatureHits counts feature requests answered from
	// the in-memory feature cache. Like profiles, feature jobs stay out
	// of Jobs(), Accesses and SimWallNS.
	Features, FeatureHits uint64
}

// Jobs is the total design points answered: simulated, cached or failed
// — exactly one increment per submission.
func (s Stats) Jobs() uint64 { return s.Simulated + s.Cached + s.Failed }

// String renders a one-line progress summary.
func (s Stats) String() string {
	out := fmt.Sprintf("%d simulated, %d cached, %d failed, %.2fM accesses, %.1fs sim wall",
		s.Simulated, s.Cached, s.Failed, float64(s.Accesses)/1e6,
		time.Duration(s.SimWallNS).Seconds())
	if s.Passes > 0 && s.Passes < s.Simulated+s.Failed {
		out = fmt.Sprintf("%s, %d passes", out, s.Passes)
	}
	if s.TraceGens+s.TraceShared > 0 {
		out = fmt.Sprintf("%s, %d traces generated / %d shared", out, s.TraceGens, s.TraceShared)
	}
	if s.TraceRetainedBytes > 0 {
		out = fmt.Sprintf("%s, %.1f MiB traces held", out, float64(s.TraceRetainedBytes)/(1<<20))
	}
	if s.Profiles+s.ProfileHits > 0 {
		out = fmt.Sprintf("%s, %d profiled / %d profile hits", out, s.Profiles, s.ProfileHits)
	}
	if s.Features+s.FeatureHits > 0 {
		out = fmt.Sprintf("%s, %d characterized / %d feature hits", out, s.Features, s.FeatureHits)
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
	// Err is the job's failure, nil on success.
	Err error
	// Result is the design point's outcome (nil on failure). Manifest
	// writers read per-level statistics from it; treat it as immutable.
	Result *system.Result
	// WallNS is the wall-clock time the simulation took: the whole pass's,
	// when the design point shared a pass with others.
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

// WithStore installs a persistent second cache tier behind the in-memory
// result memo: an in-memory miss consults the store before simulating,
// and every successful simulation is written back, so results survive
// process restarts and can be shipped between machines. Store hits count
// as Cached. Store failures never fail a job — a corrupt or unreadable
// entry degrades to re-simulation.
func WithStore(s CacheStore) Option {
	return func(e *Engine) { e.store = s }
}

// Engine executes simulation jobs with caching, bounded parallelism and
// cancellation.
type Engine struct {
	parallelism int
	cacheOff    bool
	progress    func(Event)
	reg         *telemetry.Registry
	store       CacheStore
	shareOff    bool
	shareLimit  int64

	// results memoizes simulation results by Key, profiles memoizes
	// reuse-distance profiles (profilejob.go) and features memoizes PRISM
	// features (featurejob.go): three singleflight domains that can never
	// answer each other.
	results  memo[string, *system.Result]
	profiles memo[string, *profile.Profile]
	features memo[featureKey, prism.Features]

	// shares memoizes generated traces across jobs (share.go), referenced
	// or retained; idle lists the retained ones, most recently used
	// first. retainedBytes is the budget all of them hold: written under
	// shareMu, atomic so Stats reads it without the lock.
	shareMu       sync.Mutex
	shares        map[traceID]*shareEntry
	idle          list.List
	retainedBytes atomic.Int64

	// scratch is the free list of per-run simulator buffers, one per
	// worker. Each lives for the engine's lifetime and keeps the storage
	// of the largest run it served, so steady-state simulation is
	// allocation-free; a run beyond Workers() concurrent ones borrows a
	// transient Scratch.
	scratch chan *system.Scratch
	// featScratch recycles PRISM profiler tables across the feature jobs
	// of a batch. Unlike the simulator's scratch it is a sync.Pool, so
	// the garbage collector reclaims the tables once characterization
	// stops instead of keeping them live through the simulations that
	// follow.
	featScratch sync.Pool

	simulated   atomic.Uint64
	cached      atomic.Uint64
	failed      atomic.Uint64
	accesses    atomic.Uint64
	simWallNS   atomic.Int64
	passes      atomic.Uint64
	traceGens   atomic.Uint64
	traceShared atomic.Uint64
	profiled    atomic.Uint64
	profileHits atomic.Uint64
	featured    atomic.Uint64
	featureHits atomic.Uint64
}

// New creates an engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		shares:     make(map[traceID]*shareEntry),
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
		Cached:      e.cached.Load(),
		Failed:      e.failed.Load(),
		Accesses:    e.accesses.Load(),
		SimWallNS:   e.simWallNS.Load(),
		Passes:      e.passes.Load(),
		TraceGens:   e.traceGens.Load(),
		TraceShared: e.traceShared.Load(),
		Profiles:    e.profiled.Load(),
		ProfileHits: e.profileHits.Load(),
		Features:    e.featured.Load(),
		FeatureHits: e.featureHits.Load(),

		TraceRetainedBytes: e.retainedBytes.Load(),
	}
}

// Run answers one design point, from the cache when possible. Identical
// concurrent requests share a single simulation. A cancelled context
// returns promptly with ctx.Err(). Run always simulates a pass of one;
// RunAll is where design points share passes.
func (e *Engine) Run(ctx context.Context, j Job) (*system.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key, cacheable := Key(j)
	return e.run(ctx, j, key, cacheable)
}

// run is Run with the job's cache key already computed.
func (e *Engine) run(ctx context.Context, j Job, key string, cacheable bool) (*system.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.cacheOff || !cacheable {
		res, err := e.simulate(ctx, []Job{j}, []string{""})
		return res[0], err
	}
	res, hit, err := e.results.do(ctx, key, func() (*system.Result, error) {
		// Consult the persistent tier before simulating.
		if res, hit := e.fromStore(j, key); hit {
			return res, nil
		}
		res, err := e.simulate(ctx, []Job{j}, []string{key})
		if err == nil {
			e.persist(key, res[0])
		}
		return res[0], err
	})
	if hit {
		e.cached.Add(1)
		e.reg.Counter("engine_jobs_total", "outcome", "cached").Inc()
		e.emit(j, key, res, true, nil, 0)
	}
	return res, err
}

// fromStore answers a claimed key from the persistent tier when it holds
// the result, counting and reporting the hit.
func (e *Engine) fromStore(j Job, key string) (*system.Result, bool) {
	if e.store == nil {
		return nil, false
	}
	if res, hit := e.store.Load(key); hit {
		e.cached.Add(1)
		e.reg.Counter("engine_jobs_total", "outcome", "cached").Inc()
		e.reg.Counter("engine_store_total", "outcome", "hit").Inc()
		e.emit(j, key, res, true, nil, 0)
		return res, true
	}
	e.reg.Counter("engine_store_total", "outcome", "miss").Inc()
	return nil, false
}

// persist writes a simulated result to the persistent tier, best-effort:
// an unwritable store never fails the job.
func (e *Engine) persist(key string, res *system.Result) {
	if e.store == nil {
		return
	}
	if err := e.store.Store(key, res); err != nil {
		e.reg.Counter("engine_store_total", "outcome", "write_error").Inc()
	} else {
		e.reg.Counter("engine_store_total", "outcome", "write").Inc()
	}
}

// simulate runs one simulation pass answering every job of js (keys
// aligned, "" for uncacheable jobs) and updates the counters: each job
// counts, reports and emits as its own design point, with the pass's wall
// time as its own. A pass of several jobs is one functional walk of
// their shared trace (system.RunStreamGroup); RunAll forms those. The
// returned slice is aligned with js; the error is the pass's.
func (e *Engine) simulate(ctx context.Context, js []Job, keys []string) ([]*system.Result, error) {
	cfgs := make([]system.Config, len(js))
	for k, j := range js {
		cfg := j.Config
		if e.reg != nil && cfg.Telemetry == nil {
			// Config is a value, so this stays local: every simulation run
			// by an instrumented engine publishes system-level metrics too.
			// The cache key already excludes Telemetry, so identity is
			// unchanged.
			cfg.Telemetry = e.reg
		}
		cfgs[k] = cfg
	}
	spans := make([]*telemetry.Span, len(js))
	for k, j := range js {
		spans[k] = e.reg.StartSpan("simulate", telemetry.SpanFromContext(ctx))
		spans[k].SetAttr("workload", j.Workload)
		spans[k].SetAttr("llc", j.LLCName())
	}
	scratch := e.takeScratch()
	start := time.Now()
	res, accesses, err := e.runSource(ctx, js, cfgs, scratch)
	wall := time.Since(start).Nanoseconds()
	e.putScratch(scratch)
	e.simWallNS.Add(wall)
	e.passes.Add(1)
	e.reg.Counter("engine_passes_total").Inc()
	if res == nil {
		res = make([]*system.Result, len(js))
	}
	for k, j := range js {
		e.reg.Histogram("engine_job_wall_ns").Observe(float64(wall))
		if err != nil {
			e.failed.Add(1)
			e.reg.Counter("engine_jobs_total", "outcome", "failed").Inc()
			spans[k].SetAttr("error", err.Error())
		} else {
			e.simulated.Add(1)
			e.reg.Counter("engine_jobs_total", "outcome", "simulated").Inc()
			e.accesses.Add(accesses)
			e.reg.Histogram("engine_job_llc_hits").Observe(float64(res[k].LLC.Hits))
		}
		spans[k].End()
		e.emit(j, keys[k], res[k], false, err, wall)
	}
	return res, err
}

// runSource simulates one pass over the jobs' shared trace, through the
// sharing layer when the jobs take part in it. It reports the trace's
// access count, which every job of the pass simulated.
func (e *Engine) runSource(ctx context.Context, js []Job, cfgs []system.Config, scratch *system.Scratch) ([]*system.Result, uint64, error) {
	j := js[0]
	if j.Source == nil {
		return nil, 0, fmt.Errorf("engine: job %s on %s has no trace source", j.Workload, j.LLCName())
	}
	src, err := j.Source()
	if err != nil {
		return nil, 0, err
	}
	accesses := uint64(src.Meta().Accesses)
	src, release, err := e.sharedSource(j, src, len(js))
	if err != nil {
		return nil, 0, err
	}
	defer release()
	res, err := system.RunStreamGroup(ctx, cfgs, src, scratch)
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

func (e *Engine) emit(j Job, key string, res *system.Result, cachedHit bool, err error, wallNS int64) {
	if e.progress == nil {
		return
	}
	e.progress(Event{
		Workload: j.Workload,
		LLC:      j.LLCName(),
		Key:      key,
		Cached:   cachedHit,
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
//
// Jobs that can share a functional pass (see batchPasses) run as one
// pass on one worker: a fixed-capacity technology sweep of a
// single-threaded workload walks its trace once, however many LLC
// models it prices.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) ([]*system.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Pin every distinct shareable trace for the batch, so none is
	// evicted before the batch's last job needs it (share.go).
	traces := make([]traceID, len(jobs))
	for i, j := range jobs {
		traces[i], _ = shareKey(j)
	}
	unpin := e.pinShares(traces)
	defer unpin()
	results := make([]*system.Result, len(jobs))
	errs := make([]error, len(jobs))
	units := e.batchPasses(jobs, traces)
	e.pool(ctx, len(units), func(n int) {
		unit := units[n]
		if len(unit) == 1 {
			i := unit[0]
			results[i], errs[i] = e.Run(ctx, jobs[i])
			return
		}
		e.runPass(ctx, jobs, unit, results, errs)
	}, func(n int, err error) {
		for _, i := range units[n] {
			errs[i] = err
		}
	})
	return results, joinJobErrors(errs, func(i int) string {
		return jobs[i].Workload + " on " + jobs[i].LLCName()
	})
}

// pool calls run(n) for every n in [0, items) on a fixed pool of
// min(Workers(), items) goroutines pulling indices off a shared counter,
// so each worker's stack grows once for the whole batch rather than once
// per item. A worker checks ctx before each item: after a cancellation
// no item starts, and skip(n, ctx.Err()) reports each one left.
func (e *Engine) pool(ctx context.Context, items int, run func(n int), skip func(n int, err error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(e.Workers(), items); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= items {
					return
				}
				if err := ctx.Err(); err != nil {
					skip(n, err)
					continue
				}
				run(n)
			}
		}()
	}
	wg.Wait()
}

// batchPasses partitions a batch into the units its workers run, in
// order of each unit's first job; traces are the jobs' share keys (zero
// for unshareable jobs). Groupable jobs over the same trace and machine
// (system.Config.SameMachine) form one unit; every other job is a unit
// of its own. A job is groupable when it is cacheable (so its key vouches
// for its trace), its resolved trace is single-threaded, and it asks for
// no timeline or any other system.Config.Groupable exclusion.
func (e *Engine) batchPasses(jobs []Job, traces []traceID) [][]int {
	var units [][]int
	byTrace := make(map[traceID][]int) // share key → its group units
	for i, j := range jobs {
		sk := traces[i]
		if sk == (traceID{}) || e.cacheOff || j.TraceOpts.Threads != 1 || !j.Config.Groupable() {
			units = append(units, []int{i})
			continue
		}
		joined := false
		for _, u := range byTrace[sk] {
			if jobs[units[u][0]].Config.SameMachine(j.Config) {
				units[u] = append(units[u], i)
				joined = true
				break
			}
		}
		if !joined {
			byTrace[sk] = append(byTrace[sk], len(units))
			units = append(units, []int{i})
		}
	}
	return units
}

// runPass answers a unit of groupable jobs. Each job claims its own
// result slot, as Run would: those already cached, in flight or in the
// persistent store are answered that way, and the rest simulate together
// in one pass. Duplicates within the unit wait on the first's slot.
func (e *Engine) runPass(ctx context.Context, jobs []Job, unit []int, results []*system.Result, errs []error) {
	var members, later []int
	var pass []Job
	var keys, laterKeys []string
	var ents []*memoEntry[*system.Result]
	for _, i := range unit {
		key, _ := Key(jobs[i])
		ent, claimed := e.results.claim(key)
		if !claimed {
			later = append(later, i)
			laterKeys = append(laterKeys, key)
			continue
		}
		if res, hit := e.fromStore(jobs[i], key); hit {
			e.results.settle(key, ent, res, nil)
			results[i] = res
			continue
		}
		members = append(members, i)
		pass = append(pass, jobs[i])
		keys = append(keys, key)
		ents = append(ents, ent)
	}
	if len(pass) > 0 {
		res, err := e.simulate(ctx, pass, keys)
		for k, i := range members {
			if err == nil {
				e.persist(keys[k], res[k])
			}
			e.results.settle(keys[k], ents[k], res[k], err)
			results[i], errs[i] = res[k], err
		}
	}
	for k, i := range later {
		results[i], errs[i] = e.run(ctx, jobs[i], laterKeys[k], true)
	}
}

// joinJobErrors aggregates per-job failures, labeling each with its
// job's identity and collapsing the flood of identical context errors a
// cancellation produces into a single entry.
func joinJobErrors(errs []error, label func(i int) string) error {
	var out []error
	ctxSeen := false
	for i, err := range errs {
		switch {
		case err == nil:
		case isContextErr(err):
			if !ctxSeen {
				out = append(out, err)
				ctxSeen = true
			}
		default:
			out = append(out, fmt.Errorf("engine: %s: %w", label(i), err))
		}
	}
	return errors.Join(out...)
}
