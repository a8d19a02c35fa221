package main

// The paper-grid and studies workloads: regenerate a fixed set of
// registry artifacts through sweep.Run on one shared engine, as
// cmd/figures does, then regenerate them again on the same (now warm)
// engine. A warm artifact still generates its traces; only simulation is
// skipped.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/sweep"
	"nvmllc/internal/workload"
)

var (
	paperGridArtifacts = []string{"table5", "fig1a", "fig1b", "fig2a", "fig2b", "coresweep"}
	studiesArtifacts   = []string{"table6", "fig4", "lifetime", "predict", "ablations", "degradation", "timeline", "estimate"}
)

// pointLog collects what the engine's progress events say about the
// design points it answered: simulation wall times, for the
// engine.point_* metrics, when the first simulation started, and one span
// per event in a traced run.
type pointLog struct {
	rec *recorder
	// parent returns the span a design point belongs to, given its key.
	parent func(key string) int64

	mu     sync.Mutex
	wallNS []float64
	first  time.Time
}

func (p *pointLog) onEvent(ev engine.Event) {
	if ev.Err != nil || ev.Cached {
		return
	}
	end := time.Now()
	start := end.Add(-time.Duration(ev.WallNS))
	p.mu.Lock()
	p.wallNS = append(p.wallNS, float64(ev.WallNS))
	if p.first.IsZero() || start.Before(p.first) {
		p.first = start
	}
	p.mu.Unlock()
	p.rec.record(0, p.parent(ev.Key), "point", "", ev.Workload+"/"+ev.LLC, start, end)
}

// sweepRep is one repetition of a sweep workload.
type sweepRep struct {
	setup     time.Duration     // engine construction until the first simulation starts
	cold      []time.Duration   // per artifact, fresh engine
	warm      [][]time.Duration // per artifact, each warm pass on the same engine
	wall      time.Duration     // the cold pass
	warmWall  time.Duration     // the warm passes
	digests   []string          // per artifact, of the cold pass's rendered text
	stats     engine.Stats      // at the end of the cold pass
	peakHeap  float64
	pointWall []float64
}

// warmPasses is how many times a repetition regenerates its artifacts on
// the warmed engine. A warm artifact takes about a tenth of a second, so
// one sample per repetition is too few to be steady.
const warmPasses = 4

// runSweepRep builds a fresh engine and regenerates every named artifact
// once from empty caches (cold) and then warmPasses times on the warmed
// engine. Warm text must equal cold text: a renderer that mutated a
// memoized result would break that.
//
// Set-up is timed from engine construction until the first design point
// starts simulating: whatever the artifacts do before they first need the
// simulator. On paper-grid that is table5's dispatch and its first trace;
// on studies it is all of table6, which simulates nothing. Engine
// construction alone takes well under a microsecond, too little for a
// clock to time steadily.
func runSweepRep(ctx context.Context, names []string, opts workload.Options, rec *recorder, t *tally) (*sweepRep, error) {
	var current atomic.Int64 // the running artifact's span id
	points := &pointLog{rec: rec, parent: func(string) int64 { return current.Load() }}

	heap := startHeapSampler()
	start := time.Now()
	eng := engine.New(engine.WithParallelism(workers), engine.WithProgress(points.onEvent))
	cfg := sweep.Config{Opts: opts, Engine: eng}
	rep := &sweepRep{warm: make([][]time.Duration, len(names))}

	var warmStart time.Time
	for pass := 0; pass <= warmPasses; pass++ {
		passStart := time.Now()
		for i, name := range names {
			id := rec.newID()
			current.Store(id)
			t0 := time.Now()
			res, err := sweep.Run(ctx, name, cfg)
			var text []byte
			if err == nil {
				text, err = render(res)
			}
			t1 := time.Now()
			rec.record(id, 0, "artifact", "", name, t0, t1)
			if !t.check(err == nil, "artifact %s: %v", name, err) {
				heap.finish()
				return nil, fmt.Errorf("artifact %s: %w", name, err)
			}
			sum := sha256.Sum256(text)
			digest := hex.EncodeToString(sum[:])
			if pass == 0 {
				rep.cold = append(rep.cold, t1.Sub(t0))
				rep.digests = append(rep.digests, digest)
			} else {
				rep.warm[i] = append(rep.warm[i], t1.Sub(t0))
				t.check(digest == rep.digests[i], "artifact %s: warm text differs from cold", name)
			}
		}
		if pass > 0 {
			continue
		}
		rep.wall = time.Since(passStart)
		rep.stats = eng.Stats()
		// Collect the cold pass's garbage outside the timing, so the warm
		// passes are not charged for it.
		settle()
		warmStart = time.Now()
	}
	rep.warmWall = time.Since(warmStart)
	rep.peakHeap = heap.finish()
	points.mu.Lock()
	defer points.mu.Unlock()
	if !t.check(!points.first.IsZero(), "no design point simulated") {
		return nil, fmt.Errorf("no design point simulated")
	}
	rep.setup = points.first.Sub(start)
	rep.pointWall = points.wallNS
	return rep, nil
}

// render prints an artifact's tables the way cmd/figures does.
func render(res *sweep.ArtifactResult) ([]byte, error) {
	var buf bytes.Buffer
	for i, r := range res.Renderers {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := r.Render(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// sweepRun is every repetition of one sweep workload in a run.
type sweepRun struct {
	names []string
	reps  []*sweepRep
}

// runSweeps repeats the workload until the time budget is spent (at least
// once).
func runSweeps(ctx context.Context, names []string, opts workload.Options, budget time.Duration, rec *recorder, t *tally) (*sweepRun, error) {
	run := &sweepRun{names: names}
	start := time.Now()
	for len(run.reps) == 0 || time.Since(start) < budget {
		settle()
		rep, err := runSweepRep(ctx, names, opts, rec, t)
		if err != nil {
			return nil, err
		}
		run.add(rep, t)
	}
	return run, nil
}

// add appends a repetition after checking it against the first.
func (r *sweepRun) add(rep *sweepRep, t *tally) {
	if len(r.reps) > 0 {
		r.checkRep(rep, t)
	}
	r.reps = append(r.reps, rep)
}

// checkRep checks that rep rendered the same text as the first repetition.
func (r *sweepRun) checkRep(rep *sweepRep, t *tally) {
	for i, name := range r.names {
		t.check(rep.digests[i] == r.reps[0].digests[i], "artifact %s: text differs between repetitions", name)
	}
}

// endToEnd reports the sweep workload's end-to-end metrics. Each
// artifact's cold and warm latency is its median over all its samples, so
// a burst of outside load in one repetition moves one sample, not the
// figure. wall_s is the sum of the cold medians, one typical pass. A
// request here is one artifact: cold_* time it on a fresh engine, warm_*
// on the engine that has every design point memoized, and the percentiles
// are over the artifacts; with six or eight of them, p99 is in effect the
// slowest artifact's latency. A job is one design point the cold pass
// asks the engine for, memo hits included; the count is fixed by the
// artifacts, so jobs_per_s moves with wall_s.
func (r *sweepRun) endToEnd(m metricSet) {
	var setup, heap []float64
	for k, rep := range r.reps {
		fmt.Printf("repetition %d: set-up %.2fms, cold %.3fs, warm %.3fs, %d jobs\n",
			k, rep.setup.Seconds()*1e3, rep.wall.Seconds(), rep.warmWall.Seconds(), rep.stats.Jobs())
		setup = append(setup, rep.setup.Seconds())
		heap = append(heap, rep.peakHeap)
	}
	cold := make([]float64, len(r.names))
	warm := make([]float64, len(r.names))
	var wall float64
	for i := range r.names {
		var c, w []time.Duration
		for _, rep := range r.reps {
			c, w = append(c, rep.cold[i]), append(w, rep.warm[i]...)
		}
		cold[i], warm[i] = median(ms(c)), median(ms(w))
		wall += cold[i] / 1e3
	}
	m.set("setup_s", median(setup), "s")
	m.set("wall_s", wall, "s")
	m.set("peak_heap_mib", median(heap), "MiB")
	m.set("jobs_per_s", float64(r.reps[0].stats.Jobs())/wall, "jobs/s")
	m.set("cold_p50_ms", quantile(cold, 0.5), "ms")
	m.set("cold_p99_ms", quantile(cold, 0.99), "ms")
	m.set("warm_p50_ms", quantile(warm, 0.5), "ms")
	m.set("warm_p99_ms", quantile(warm, 0.99), "ms")
}

// perLayer reports the sweep and engine layers of a traced run. The engine
// figures are the cold passes': the warm passes only replay memo hits.
func (r *sweepRun) perLayer(m metricSet) {
	var st engine.Stats
	var busy time.Duration
	var points []float64
	for i, name := range r.names {
		var walls []float64
		for _, rep := range r.reps {
			walls = append(walls, rep.cold[i].Seconds())
		}
		m.set("sweep."+name+".wall_s", median(walls), "s")
	}
	for _, rep := range r.reps {
		st = addStats(st, rep.stats)
		busy += rep.wall
		points = append(points, rep.pointWall...)
	}
	engineLayer(m, st, busy, points)
}

// digests lists each artifact's digest, as printed for cross-run
// comparison.
func (r *sweepRun) digests() map[string]string {
	out := map[string]string{}
	for i, name := range r.names {
		out[name] = r.reps[0].digests[i]
	}
	return out
}

// addStats sums two engine counter snapshots.
func addStats(a, b engine.Stats) engine.Stats {
	a.Simulated += b.Simulated
	a.Cached += b.Cached
	a.Failed += b.Failed
	a.Upgraded += b.Upgraded
	a.Accesses += b.Accesses
	a.SimWallNS += b.SimWallNS
	a.TraceGens += b.TraceGens
	a.TraceShared += b.TraceShared
	a.Profiles += b.Profiles
	a.ProfileHits += b.ProfileHits
	return a
}

// engineLayer reports the engine.* metrics from summed counters, the wall
// time the engines were busy for, and per-design-point simulation times.
func engineLayer(m metricSet, st engine.Stats, busy time.Duration, pointWallNS []float64) {
	m.set("engine.simulated", float64(st.Simulated), "count")
	m.set("engine.cached", float64(st.Cached), "count")
	m.set("engine.memo_hit_ratio", ratio(float64(st.Cached), float64(st.Jobs())), "fraction")
	m.set("engine.trace_gens", float64(st.TraceGens), "count")
	m.set("engine.trace_shared", float64(st.TraceShared), "count")
	m.set("engine.sim_ns_per_access", ratio(float64(st.SimWallNS), float64(st.Accesses)), "ns")
	m.set("engine.busy_frac", ratio(float64(st.SimWallNS), float64(busy.Nanoseconds())*workers), "fraction")
	m.set("engine.point_p50_ms", quantile(pointWallNS, 0.5)/1e6, "ms")
	m.set("engine.point_p99_ms", quantile(pointWallNS, 0.99)/1e6, "ms")
	m.set("engine.profiles", float64(st.Profiles), "count")
	m.set("engine.profile_hits", float64(st.ProfileHits), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
