package engine

// Profile jobs: the reuse-distance profiling analogue of simulation
// jobs. A ProfileJob identifies a trace (same provenance fields as Job)
// plus the profile.Config selecting the geometries to cover; the engine
// memoizes profiles under their own deterministic key — a distinct
// domain from simulation keys, so the two caches can never answer each
// other — persists them through the store when it implements
// ProfileStore, and rides the cross-job trace-sharing layer so a sweep
// that both profiles and simulates a workload generates its trace once.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"nvmllc/internal/profile"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// ProfileJob is one profiling request: a trace plus the geometry cover
// to profile it over. Source and NoCache behave exactly as on Job.
type ProfileJob struct {
	// Workload is the trace/workload name.
	Workload string
	// TraceOpts are the resolved generation options that produced the
	// trace.
	TraceOpts workload.Options
	// Config selects the set counts and histogram bound.
	Config profile.Config
	// Hierarchy, when non-nil, strains the trace through functional
	// L1/L2 levels first (profile.RunFiltered), so the profiled stream
	// is the one the LLC sees; nil profiles the raw stream.
	Hierarchy *profile.Hierarchy
	// Source supplies the trace as a chunked stream (same contract as
	// Job.Source).
	Source func() (trace.ChunkSource, error)
	// NoCache forces a fresh profiling pass and keeps it out of the
	// cache.
	NoCache bool
}

// StreamProfileJob builds a streaming profile job for a named workload,
// sharing its generated trace with any simulation jobs over the same
// (profile, options) pair. Like StreamJob, it carries the resolved
// options.
func StreamProfileJob(p workload.Profile, opts workload.Options, pc profile.Config) ProfileJob {
	opts = p.Resolve(opts)
	return ProfileJob{
		Workload:  p.Name,
		TraceOpts: opts,
		Config:    pc,
		Source: func() (trace.ChunkSource, error) {
			return workload.NewGenerator(p, opts)
		},
	}
}

// ProfileKey returns the deterministic cache key for a profile job and
// whether it is cacheable. The key hashes the trace provenance, the
// profile configuration and the filter hierarchy under a domain prefix
// distinct from simulation keys.
func ProfileKey(pj ProfileJob) (string, bool) {
	if pj.NoCache {
		return "", false
	}
	h := sha256.New()
	fmt.Fprintf(h, "domain=profile\nworkload=%s\nopts=%+v\n", pj.Workload, pj.TraceOpts)
	fmt.Fprintf(h, "config=%+v\n", pj.Config.WithDefaults())
	if pj.Hierarchy != nil {
		fmt.Fprintf(h, "hierarchy=%+v\n", *pj.Hierarchy)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// RunProfile answers one profiling request, from the profile cache when
// possible. Identical concurrent requests share a single pass; a
// cancelled context returns promptly with ctx.Err().
func (e *Engine) RunProfile(ctx context.Context, pj ProfileJob) (*profile.Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key, cacheable := ProfileKey(pj)
	if e.cacheOff || !cacheable {
		return e.computeProfile(ctx, pj)
	}
	ps, _ := e.store.(ProfileStore)
	stored := false
	p, hit, err := e.profiles.do(ctx, key, func() (*profile.Profile, error) {
		// Consult the persistent tier before profiling.
		if ps != nil {
			if p, ok := ps.LoadProfile(key); ok {
				stored = true
				return p, nil
			}
		}
		p, err := e.computeProfile(ctx, pj)
		if err == nil && ps != nil {
			// Best-effort persistence, mirroring result stores.
			if serr := ps.StoreProfile(key, p); serr != nil {
				e.reg.Counter("engine_profile_store_total", "outcome", "write_error").Inc()
			} else {
				e.reg.Counter("engine_profile_store_total", "outcome", "write").Inc()
			}
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	if hit || stored {
		e.profileHits.Add(1)
		e.reg.Counter("engine_profiles_total", "outcome", "cached").Inc()
	}
	return p, nil
}

// computeProfile executes the profiling pass, riding the trace-sharing
// layer for generator-backed jobs and the engine's per-worker scratch
// for buffers. It is accounted under Stats.Profiles (never Jobs()).
func (e *Engine) computeProfile(ctx context.Context, pj ProfileJob) (*profile.Profile, error) {
	span := e.reg.StartSpan("profile", telemetry.SpanFromContext(ctx))
	span.SetAttr("workload", pj.Workload)
	defer span.End()
	scratch := e.takeScratch()
	start := time.Now()
	p, err := e.profileSource(ctx, pj, scratch.ProfileScratch())
	wall := time.Since(start).Nanoseconds()
	e.putScratch(scratch)
	e.simWallNS.Add(wall)
	e.reg.Histogram("engine_profile_wall_ns").Observe(float64(wall))
	if err != nil {
		e.reg.Counter("engine_profiles_total", "outcome", "failed").Inc()
		span.SetAttr("error", err.Error())
		return nil, err
	}
	e.profiled.Add(1)
	e.reg.Counter("engine_profiles_total", "outcome", "computed").Inc()
	e.accesses.Add(uint64(p.Accesses))
	return p, nil
}

// runProfilePass dispatches to the raw or filtered profiler.
func runProfilePass(ctx context.Context, pj ProfileJob, src trace.ChunkSource, sc *profile.Scratch) (*profile.Profile, error) {
	if pj.Hierarchy != nil {
		return profile.RunFiltered(ctx, src, *pj.Hierarchy, pj.Config, sc)
	}
	return profile.Run(ctx, src, pj.Config, sc)
}

// profileSource obtains the job's stream — share-layer slice or the
// job's own source — and profiles it.
func (e *Engine) profileSource(ctx context.Context, pj ProfileJob, sc *profile.Scratch) (*profile.Profile, error) {
	if pj.Source == nil {
		return nil, fmt.Errorf("engine: profile job %s has no trace source", pj.Workload)
	}
	src, err := pj.Source()
	if err != nil {
		return nil, err
	}
	// Share the materialized trace with simulation jobs over the same
	// (workload, options) pair: shareKey ignores everything profile-
	// specific, so the estimate artifact generates its workload once for
	// its exact simulations and the profile that follows them.
	alias := Job{Workload: pj.Workload, TraceOpts: pj.TraceOpts, Source: pj.Source, NoCache: pj.NoCache}
	src, release, err := e.sharedSource(alias, src, 1)
	if err != nil {
		return nil, err
	}
	defer release()
	return runProfilePass(ctx, pj, src, sc)
}
