package main

// The llcsimd workload: a closed loop of clients in front of
// serve.New(...).Handler() behind httptest, on an engine.DiskCache, as
// cmd/llcsimd serves it. Every cycle sends the same job list through a
// cold phase, on an empty cache directory, and then through warm phases,
// each on a fresh server and engine over the same directory, where every
// job is a disk hit.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/profile"
	"nvmllc/internal/reference"
	"nvmllc/internal/serve"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// jobList draws n distinct (workload, llc, config, seed) sim specs from
// the benchmark seed. Each (workload, llc, config) point recurs with
// successive trace seeds, so a multiple of the point count gives every
// benchmark seed the same mix of work; the trace seeds and the order come
// from the benchmark seed, so two benchmark seeds never share a design
// point. The SRAM baseline is the same LLC in both configuration blocks,
// so it is drawn from "cap" only: every spec is a distinct design point
// and the cold phase simulates each one.
func jobList(seed int64, n, accesses int) []serve.JobSpec {
	var all []serve.JobSpec
	for s := int64(0); len(all) < n; s++ {
		for _, w := range reference.Workloads() {
			for _, m := range reference.FixedCapacityModels() {
				for _, block := range []string{"cap", "area"} {
					if block == "area" && m.Name == reference.SRAMBaseline().Name {
						continue
					}
					all = append(all, serve.JobSpec{
						Workload: w.Name, LLC: m.Name, Config: block,
						Accesses: accesses, Seed: seed*1000 + s + 1,
					})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n]
}

// timedStore is the engine.CacheStore (and engine.ProfileStore) the
// engine sees: a DiskCache with every Load and Store timed, and recorded
// as a span of the job whose key it serves.
type timedStore struct {
	disk  *engine.DiskCache
	rec   *recorder
	jobOf func(key string) int64

	mu     sync.Mutex
	loadUS []float64
	storUS []float64
}

func (s *timedStore) observe(name, key string, start time.Time, into *[]float64) {
	end := time.Now()
	s.mu.Lock()
	*into = append(*into, float64(end.Sub(start).Nanoseconds())/1e3)
	s.mu.Unlock()
	s.rec.record(0, s.jobOf(key), name, "", key, start, end)
}

func (s *timedStore) Load(key string) (*system.Result, bool) {
	start := time.Now()
	res, ok := s.disk.Load(key)
	s.observe("store.load", key, start, &s.loadUS)
	return res, ok
}

func (s *timedStore) Store(key string, res *system.Result) error {
	start := time.Now()
	err := s.disk.Store(key, res)
	s.observe("store.store", key, start, &s.storUS)
	return err
}

func (s *timedStore) Keys() []string { return s.disk.Keys() }

func (s *timedStore) LoadProfile(key string) (*profile.Profile, bool) {
	return s.disk.LoadProfile(key)
}

func (s *timedStore) StoreProfile(key string, p *profile.Profile) error {
	return s.disk.StoreProfile(key, p)
}

// jobTiming is what the client measured for one job.
type jobTiming struct {
	total, submit, result, wait time.Duration
	execMS                      float64
	polls                       int
	resultBytes                 int
}

// phase is one pass of the job list through a fresh server.
type phase struct {
	setup   time.Duration
	boot    time.Duration
	elapsed time.Duration
	jobs    []jobTiming
	results [][]byte // canonical Result JSON per job index
	stats   engine.Stats
	disk    engine.DiskCacheStats
	loadUS  []float64
	storeUS []float64
	points  []float64
	reject  int
}

// client drives one server with a closed loop of at most `workers`
// concurrent jobs: each sends its next job only after the previous
// result arrived.
type client struct {
	base string
	http *http.Client
	rec  *recorder
}

// jobView is the subset of the server's job view the client reads.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Key    string `json:"key"`
	Error  string `json:"error"`
	WallMS int64  `json:"wall_ms"`
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runJob submits one spec, polls until it is done and fetches the result.
// onKey learns the job's cache key (and root span) before it can run.
func (c *client) runJob(ctx context.Context, spec serve.JobSpec, onKey func(key string, span int64)) (jobTiming, []byte, error) {
	var jt jobTiming
	payload, err := json.Marshal(spec)
	if err != nil {
		return jt, nil, err
	}
	root := c.rec.newID()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return jt, nil, err
	}
	code, body, err := c.do(req)
	accepted := time.Now()
	if err != nil {
		return jt, nil, err
	}
	if code != http.StatusAccepted {
		return jt, nil, fmt.Errorf("submit: HTTP %d: %s", code, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return jt, nil, fmt.Errorf("submit: %w", err)
	}
	onKey(v.Key, root)
	c.rec.record(0, root, "http.submit", v.ID, "", start, accepted)
	jt.submit = accepted.Sub(start)

	// The first polls go out back to back: a warm job is done within a
	// round trip or two, and a timer wakeup on a loaded host can take
	// longer than that. A cold job takes a few milliseconds, so later
	// polls back off.
	backoff := 50 * time.Microsecond
	for v.Status != string(serve.StatusDone) {
		if v.Status == string(serve.StatusFailed) {
			return jt, nil, fmt.Errorf("job %s failed: %s", v.ID, v.Error)
		}
		if jt.polls >= 3 {
			time.Sleep(backoff)
			backoff = min(2*backoff, time.Millisecond)
		}
		jt.polls++
		p0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+v.ID, nil)
		if err != nil {
			return jt, nil, err
		}
		code, body, err := c.do(req)
		if err != nil {
			return jt, nil, err
		}
		if code != http.StatusOK {
			return jt, nil, fmt.Errorf("poll %s: HTTP %d", v.ID, code)
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return jt, nil, fmt.Errorf("poll %s: %w", v.ID, err)
		}
		c.rec.record(0, root, "http.poll", v.ID, "", p0, time.Now())
	}
	done := time.Now()

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+v.ID+"/result", nil)
	if err != nil {
		return jt, nil, err
	}
	code, body, err = c.do(req)
	end := time.Now()
	if err != nil {
		return jt, nil, err
	}
	if code != http.StatusOK {
		return jt, nil, fmt.Errorf("result %s: HTTP %d", v.ID, code)
	}
	var rb struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		return jt, nil, fmt.Errorf("result %s: %w", v.ID, err)
	}
	var canon bytes.Buffer
	if err := json.Compact(&canon, rb.Result); err != nil {
		return jt, nil, fmt.Errorf("result %s: %w", v.ID, err)
	}
	c.rec.record(0, root, "http.result", v.ID, "", done, end)
	c.rec.record(root, 0, "job", v.ID, spec.Workload+"/"+spec.LLC+"/"+spec.Config, start, end)

	jt.total = end.Sub(start)
	jt.result = end.Sub(done)
	jt.execMS = float64(v.WallMS)
	// A job can start executing before its 202 reaches the client, so the
	// wait is counted from the POST: everything up to "done" that was not
	// execution (submit handling, queueing, poll latency).
	jt.wait = done.Sub(start) - time.Duration(v.WallMS)*time.Millisecond
	jt.resultBytes = len(body)
	return jt, canon.Bytes(), nil
}

// runPhase boots a server over dir and sends it every spec.
func runPhase(ctx context.Context, dir string, specs []serve.JobSpec, rec *recorder, t *tally) (*phase, error) {
	var jobSpans sync.Map // cache key → job root span id
	jobOf := func(key string) int64 {
		if v, ok := jobSpans.Load(key); ok {
			return v.(int64)
		}
		return 0
	}
	points := &pointLog{rec: rec, parent: jobOf}

	settle()
	start := time.Now()
	disk, err := engine.OpenDiskCache(dir)
	if err != nil {
		return nil, err
	}
	boot := time.Since(start)
	store := &timedStore{disk: disk, rec: rec, jobOf: jobOf}
	engOpts := []engine.Option{engine.WithParallelism(workers), engine.WithStore(store)}
	if rec != nil {
		engOpts = append(engOpts, engine.WithProgress(points.onEvent))
	}
	eng := engine.New(engOpts...)
	srv, err := serve.New(serve.Config{Engine: eng, Workers: workers, QueueDepth: 4 * workers})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	ph := &phase{setup: time.Since(start), boot: boot,
		jobs: make([]jobTiming, len(specs)), results: make([][]byte, len(specs))}

	transport := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	c := &client{base: ts.URL, http: &http.Client{Transport: transport}, rec: rec}

	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) || ctx.Err() != nil {
					return
				}
				jt, res, err := c.runJob(ctx, specs[i], func(key string, span int64) { jobSpans.Store(key, span) })
				mu.Lock()
				if t.check(err == nil, "job %d (%+v): %v", i, specs[i], err) {
					ph.jobs[i], ph.results[i] = jt, res
				} else {
					ph.reject++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(begin)
	// Shutdown returns once the server's workers have exited, so every
	// store and progress callback has finished before they are read.
	transport.CloseIdleConnections()
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	ph.stats = eng.Stats()
	ph.disk = disk.Stats()
	ph.loadUS, ph.storeUS, ph.points = store.loadUS, store.storUS, points.wallNS
	return ph, ctx.Err()
}

// cycle is one cold phase and its warm phases over the same directory.
type cycle struct {
	cold     *phase
	warm     []*phase
	peakHeap float64
}

// phases lists the cycle's cold phase and then its warm ones.
func (cy *cycle) phases() []*phase { return append([]*phase{cy.cold}, cy.warm...) }

// wall is the time of one cold and one warm pass over the job list.
func (cy *cycle) wall() time.Duration {
	var warm time.Duration
	for _, ph := range cy.warm {
		warm += ph.elapsed
	}
	return cy.cold.elapsed + warm/time.Duration(len(cy.warm))
}

// llcsimdRun is every cycle of a run, plus the job list it served.
type llcsimdRun struct {
	specs  []serve.JobSpec
	cycles []*cycle
}

// runLLCSimd repeats cold+warm cycles until the budget is spent (at
// least once). Every cycle starts from a fresh directory under workdir.
func runLLCSimd(ctx context.Context, specs []serve.JobSpec, workdir string, budget time.Duration, rec *recorder, t *tally) (*llcsimdRun, error) {
	run := &llcsimdRun{specs: specs}
	start := time.Now()
	for len(run.cycles) == 0 || time.Since(start) < budget {
		dir, err := os.MkdirTemp(workdir, "llcsimd-")
		if err != nil {
			return nil, err
		}
		cy, err := runCycle(ctx, dir, specs, rec, t)
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		run.add(cy, t)
	}
	return run, nil
}

// add appends a cycle after checking it against the first.
func (r *llcsimdRun) add(cy *cycle, t *tally) {
	if len(r.cycles) > 0 {
		r.checkCycle(cy, t)
	}
	r.cycles = append(r.cycles, cy)
}

// checkCycle checks that cy served the same results as the first cycle.
func (r *llcsimdRun) checkCycle(cy *cycle, t *tally) {
	t.check(bytes.Equal(digestAll(cy.cold.results), digestAll(r.cycles[0].cold.results)),
		"served results differ between cycles")
}

// warmPhases is how many warm phases follow each cold one. A warm job
// takes a fraction of a millisecond, so one pass over the list is too
// short a sample to be steady.
const warmPhases = 5

func runCycle(ctx context.Context, dir string, specs []serve.JobSpec, rec *recorder, t *tally) (*cycle, error) {
	heap := startHeapSampler()
	cache := filepath.Join(dir, "cache")
	cold, err := runPhase(ctx, cache, specs, rec, t)
	if err != nil {
		heap.finish()
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	cy := &cycle{cold: cold}
	for k := 0; k < warmPhases && err == nil; k++ {
		var warm *phase
		if warm, err = runPhase(ctx, cache, specs, rec, t); err == nil {
			cy.warm = append(cy.warm, warm)
		}
	}
	cy.peakHeap = heap.finish()
	if err != nil {
		return nil, fmt.Errorf("warm phase: %w", err)
	}
	n := uint64(len(specs))
	t.check(cold.stats.Simulated == n, "cold phase simulated %d of %d jobs", cold.stats.Simulated, n)
	for _, warm := range cy.warm {
		t.check(warm.stats.Simulated == 0 && warm.stats.Cached == n,
			"warm phase: %d simulated, %d cached; want every job from disk", warm.stats.Simulated, warm.stats.Cached)
		for i := range specs {
			t.check(cold.results[i] != nil && bytes.Equal(cold.results[i], warm.results[i]),
				"job %d: warm result differs from cold", i)
		}
	}
	return cy, nil
}

// digestAll hashes a list of result bodies in order.
func digestAll(results [][]byte) []byte {
	h := sha256.New()
	for _, r := range results {
		h.Write(r)
		h.Write([]byte{'\n'})
	}
	return h.Sum(nil)
}

// recheck simulates a seeded sample of the served specs again on a
// private engine with no store, and compares each with what was served.
func (r *llcsimdRun) recheck(ctx context.Context, seed int64, n int, t *tally) error {
	eng := engine.New(engine.WithParallelism(workers))
	rng := rand.New(rand.NewSource(seed + 7))
	served := r.cycles[0].cold.results
	for _, i := range rng.Perm(len(r.specs))[:min(n, len(r.specs))] {
		job, err := simJob(r.specs[i])
		if err != nil {
			return err
		}
		res, err := eng.Run(ctx, job)
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		t.check(bytes.Equal(want, served[i]), "job %d (%+v): served result differs from a fresh simulation", i, r.specs[i])
	}
	return nil
}

// simJob builds the design point a sim spec names with the server's
// defaults (4 threads on 4 cores, no wear, faults or timeline).
func simJob(s serve.JobSpec) (engine.Job, error) {
	p, err := workload.ByName(s.Workload)
	if err != nil {
		return engine.Job{}, err
	}
	models := reference.FixedCapacityModels()
	if s.Config == "area" {
		models = reference.FixedAreaModels()
	}
	m, err := reference.ModelByName(models, s.LLC)
	if err != nil {
		return engine.Job{}, err
	}
	opts := workload.Options{Accesses: s.Accesses, Threads: 4, Seed: s.Seed}
	return engine.StreamJob(p, opts, system.Gainestown(m).WithCores(4)), nil
}

// endToEnd reports the serving workload's end-to-end metrics. A request
// here is one job, from POST to the result body received; each phase's
// p50 and p99 are over its jobs, and the run reports the median phase, so
// a burst of load from outside the benchmark moves one phase, not the
// figure. setup_s is one cold boot plus one warm boot (the boot sweep of
// a full directory).
func (r *llcsimdRun) endToEnd(m metricSet) {
	var coldSetup, warmSetup, wall, heap []float64
	var cold50, cold99, warm50, warm99 []float64
	var jobs int
	var busy time.Duration
	for k, cy := range r.cycles {
		coldSetup = append(coldSetup, cy.cold.setup.Seconds())
		wall = append(wall, cy.wall().Seconds())
		heap = append(heap, cy.peakHeap)
		p50, p99 := jobPercentiles(cy.cold)
		cold50, cold99 = append(cold50, p50), append(cold99, p99)
		fmt.Printf("cycle %d: cold %.3fs p50 %.3fms p99 %.3fms; warm", k, cy.cold.elapsed.Seconds(), p50, p99)
		for _, ph := range cy.warm {
			warmSetup = append(warmSetup, ph.setup.Seconds())
			p50, p99 := jobPercentiles(ph)
			warm50, warm99 = append(warm50, p50), append(warm99, p99)
			fmt.Printf(" p50 %.3fms p99 %.3fms,", p50, p99)
		}
		fmt.Println()
		for _, ph := range cy.phases() {
			jobs += len(ph.jobs)
			busy += ph.elapsed
		}
	}
	m.set("setup_s", median(coldSetup)+median(warmSetup), "s")
	m.set("wall_s", median(wall), "s")
	m.set("peak_heap_mib", median(heap), "MiB")
	m.set("cold_p50_ms", median(cold50), "ms")
	m.set("cold_p99_ms", median(cold99), "ms")
	m.set("warm_p50_ms", median(warm50), "ms")
	m.set("warm_p99_ms", median(warm99), "ms")
	m.set("jobs_per_s", float64(jobs)/busy.Seconds(), "jobs/s")
}

// jobPercentiles is the p50 and p99 of a phase's job latencies, in ms.
func jobPercentiles(ph *phase) (p50, p99 float64) {
	lat := make([]float64, len(ph.jobs))
	for i, jt := range ph.jobs {
		lat[i] = float64(jt.total) / 1e6
	}
	return quantile(lat, 0.5), quantile(lat, 0.99)
}

// perLayer reports the engine, store and serve layers of a traced run.
func (r *llcsimdRun) perLayer(m metricSet) {
	var st engine.Stats
	var busy time.Duration
	var points, loadUS, storeUS, boot []float64
	var submit, result, wait, execMS, polls, kib []float64
	var disk engine.DiskCacheStats
	rejected := 0
	for _, cy := range r.cycles {
		for _, ph := range cy.phases() {
			st = addStats(st, ph.stats)
			busy += ph.elapsed
			points = append(points, ph.points...)
			loadUS = append(loadUS, ph.loadUS...)
			storeUS = append(storeUS, ph.storeUS...)
			disk.Hits += ph.disk.Hits
			disk.Misses += ph.disk.Misses
			disk.Corrupt += ph.disk.Corrupt
			rejected += ph.reject
			for _, jt := range ph.jobs {
				submit = append(submit, float64(jt.submit.Nanoseconds())/1e3)
				result = append(result, float64(jt.result.Nanoseconds())/1e3)
				polls = append(polls, float64(jt.polls))
				kib = append(kib, float64(jt.resultBytes)/1024)
			}
		}
		for _, jt := range cy.cold.jobs {
			execMS = append(execMS, jt.execMS)
			wait = append(wait, float64(jt.wait.Nanoseconds())/1e6)
		}
		for _, ph := range cy.warm {
			boot = append(boot, float64(ph.boot.Nanoseconds())/1e6)
		}
	}
	engineLayer(m, st, busy, points)
	m.set("engine.store.load_us_p50", quantile(loadUS, 0.5), "us")
	m.set("engine.store.load_us_p99", quantile(loadUS, 0.99), "us")
	m.set("engine.store.store_us_p50", quantile(storeUS, 0.5), "us")
	m.set("engine.store.hits", float64(disk.Hits), "count")
	m.set("engine.store.misses", float64(disk.Misses), "count")
	m.set("engine.store.corrupt", float64(disk.Corrupt), "count")
	m.set("engine.store.boot_ms", median(boot), "ms")
	m.set("serve.submit_us_p50", quantile(submit, 0.5), "us")
	m.set("serve.result_us_p50", quantile(result, 0.5), "us")
	m.set("serve.exec_ms_mean", mean(execMS), "ms")
	m.set("serve.wait_ms_p50", quantile(wait, 0.5), "ms")
	m.set("serve.polls_per_job", mean(polls), "count")
	m.set("serve.result_kib", mean(kib), "KiB")
	m.set("serve.rejected", float64(rejected), "count")
}

// digest is the combined digest of every served result, printed for
// cross-run comparison.
func (r *llcsimdRun) digest() string {
	return hex.EncodeToString(digestAll(r.cycles[0].cold.results))
}
