package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/telemetry"
)

// newTestServer builds a server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = engine.New()
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	if cfg.DefaultAccesses == 0 {
		cfg.DefaultAccesses = 20000
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postJSON posts v and decodes the response into out (when non-nil).
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url into out (when non-nil).
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string) view {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v view
		if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d", id, code)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// simSpec is a small deterministic design point; the seed distinguishes
// design points.
func simSpec(seed int64) JobSpec {
	return JobSpec{Workload: "bzip2", LLC: "SRAM", Accesses: 20000, Seed: seed}
}

// TestSubmitPollResult is the basic happy path: submit, poll to done,
// fetch the full result.
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v view
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(1), &v); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if v.ID == "" || v.Key == "" {
		t.Fatalf("submission view incomplete: %+v", v)
	}
	done := waitTerminal(t, ts.URL, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", done.Status, done.Error)
	}
	var res resultBody
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if res.Result == nil || res.Result.Instructions == 0 {
		t.Error("result endpoint returned no simulation outcome")
	}
}

// TestConcurrentSubmissionsCoalesce is the headline dedup behavior: 64
// concurrent submissions spanning 8 distinct design points trigger at
// most 8 simulations — identical in-flight requests share one run via
// the engine's singleflight cache, the rest are cache hits.
func TestConcurrentSubmissionsCoalesce(t *testing.T) {
	eng := engine.New()
	s, ts := newTestServer(t, Config{Engine: eng, QueueDepth: 128})

	const distinct = 8
	const total = 64
	ids := make([]string, total)
	var wg sync.WaitGroup
	errs := make([]error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(simSpec(int64(i%distinct + 1)))
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var v view
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("HTTP %d: %s", resp.StatusCode, v.Error)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if v := waitTerminal(t, ts.URL, id); v.Status != StatusDone {
			t.Fatalf("job %s ended %s (%s)", id, v.Status, v.Error)
		}
	}
	st := eng.Stats()
	if st.Simulated > distinct {
		t.Errorf("%d simulations for %d distinct design points (want ≤ %d; coalescing broken)",
			st.Simulated, distinct, distinct)
	}
	if st.Jobs() != total {
		t.Errorf("engine answered %d jobs, want %d (one per submission)", st.Jobs(), total)
	}
	_ = s
}

// TestQueueOverflowBackpressure fills the pipeline — one blocked worker,
// a full queue — and requires the next submission to bounce with 429
// while the in-flight and queued jobs complete unharmed after release.
func TestQueueOverflowBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	eng := engine.New()
	reg := telemetry.New()
	s, err := New(Config{Engine: eng, Registry: reg, Workers: 1, QueueDepth: 2, DefaultAccesses: 20000})
	if err != nil {
		t.Fatal(err)
	}
	s.testHook = func(jb *job) {
		started <- jb.id
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	// One running (held by the hook) + two queued = pipeline full.
	var admitted []string
	for i := 0; i < 3; i++ {
		var v view
		if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(int64(i+1)), &v); code != http.StatusAccepted {
			t.Fatalf("submission %d: HTTP %d", i, code)
		}
		admitted = append(admitted, v.ID)
		if i == 0 {
			<-started // ensure the worker picked it up, freeing a queue slot ambiguity
		}
	}
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(99), &e); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: HTTP %d, want 429", code)
	}
	if !strings.Contains(e.Error, "queue full") {
		t.Errorf("overflow error = %q", e.Error)
	}
	if got := reg.Counter("serve_jobs_total", "outcome", "rejected_overflow").Value(); got != 1 {
		t.Errorf("rejected_overflow counter = %d, want 1", got)
	}

	close(release)
	for _, id := range admitted {
		if v := waitTerminal(t, ts.URL, id); v.Status != StatusDone {
			t.Errorf("admitted job %s ended %s (%s) — overflow must not hurt in-flight work", id, v.Status, v.Error)
		}
	}
}

// corruptCacheEntry flips a payload byte in one on-disk cache file so
// its checksum no longer matches.
func corruptCacheEntry(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.llcres"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no cache entries to corrupt (err=%v)", err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestartServesFromDisk: a second daemon generation sharing only
// the on-disk cache answers every previously computed design point with
// zero re-simulations; a corrupted cache file degrades to exactly one
// re-simulation, not an error.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{simSpec(1), simSpec(2), simSpec(3), simSpec(4)}

	runGeneration := func(wantSimulated uint64) {
		t.Helper()
		store, err := engine.OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.WithStore(store))
		_, ts := newTestServer(t, Config{Engine: eng})
		var resp struct {
			Jobs []batchItem `json:"jobs"`
		}
		if code := postJSON(t, ts.URL+"/v1/jobs/batch", batchRequest{Jobs: specs}, &resp); code != http.StatusAccepted {
			t.Fatalf("batch: HTTP %d", code)
		}
		for _, item := range resp.Jobs {
			if item.ID == "" {
				t.Fatalf("batch item rejected: %+v", item)
			}
			if v := waitTerminal(t, ts.URL, item.ID); v.Status != StatusDone {
				t.Fatalf("job %s ended %s (%s)", item.ID, v.Status, v.Error)
			}
		}
		if st := eng.Stats(); st.Simulated != wantSimulated {
			t.Fatalf("generation simulated %d, want %d (stats %+v)", st.Simulated, wantSimulated, st)
		}
	}

	runGeneration(uint64(len(specs))) // cold: everything simulates
	runGeneration(0)                  // warm restart: all served from disk

	corruptCacheEntry(t, dir)
	runGeneration(1) // corruption degrades to one re-simulation
}

// TestGracefulShutdownDrains: jobs queued at Shutdown still complete,
// and submissions during the drain get 503.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	eng := engine.New()
	s, err := New(Config{Engine: eng, Workers: 1, QueueDepth: 8, DefaultAccesses: 20000})
	if err != nil {
		t.Fatal(err)
	}
	var hookOnce sync.Once
	s.testHook = func(*job) {
		// Hold only the first job so the rest are still queued when
		// Shutdown begins.
		hookOnce.Do(func() { <-release })
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		var v view
		if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(int64(i+1)), &v); code != http.StatusAccepted {
			t.Fatalf("submission %d: HTTP %d", i, code)
		}
		ids = append(ids, v.ID)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The drain must refuse new work.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(50), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: HTTP %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: HTTP %d, want 503", code)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		v := s.lookup(id).view()
		if v.Status != StatusDone {
			t.Errorf("job %s ended %s (%s); graceful shutdown must drain queued work", id, v.Status, v.Error)
		}
	}
}

// TestPanicIsolation: a panicking job fails alone; the worker survives
// and keeps serving subsequent jobs.
func TestPanicIsolation(t *testing.T) {
	eng := engine.New()
	reg := telemetry.New()
	s, err := New(Config{Engine: eng, Registry: reg, Workers: 1, QueueDepth: 8, DefaultAccesses: 20000})
	if err != nil {
		t.Fatal(err)
	}
	s.testHook = func(jb *job) {
		if jb.spec.Seed == 666 {
			panic("injected test panic")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	var bad, good view
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(666), &bad); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(1), &good); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if v := waitTerminal(t, ts.URL, bad.ID); v.Status != StatusFailed || !strings.Contains(v.Error, "panicked") {
		t.Errorf("panicking job: %+v, want failed with panic error", v)
	}
	if v := waitTerminal(t, ts.URL, good.ID); v.Status != StatusDone {
		t.Errorf("job after the panic ended %s (%s); worker must survive", v.Status, v.Error)
	}
	if got := reg.Counter("serve_jobs_total", "outcome", "panic").Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

// TestPerJobTimeout: a job whose deadline expires fails with a context
// error; the server keeps serving.
func TestPerJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := simSpec(1)
	spec.Accesses = 5_000_000
	spec.TimeoutMS = 1
	var v view
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	done := waitTerminal(t, ts.URL, v.ID)
	if done.Status != StatusFailed || !strings.Contains(done.Error, "deadline") {
		t.Errorf("timed-out job: %+v, want failed with deadline error", done)
	}
	// The daemon is still healthy.
	var ok view
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(2), &ok); code != http.StatusAccepted {
		t.Fatalf("post-timeout submit: HTTP %d", code)
	}
	if v := waitTerminal(t, ts.URL, ok.ID); v.Status != StatusDone {
		t.Errorf("post-timeout job ended %s (%s)", v.Status, v.Error)
	}
}

// TestArtifactJob runs a registry artifact through the service and
// expects its rendered text back.
func TestArtifactJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v view
	if code := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Artifact: "table5", Accesses: 20000}, &v); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	done := waitTerminal(t, ts.URL, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("artifact job ended %s (%s)", done.Status, done.Error)
	}
	var res resultBody
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if !strings.Contains(res.Text, "Table V") {
		t.Errorf("artifact text missing the table header:\n%.200s", res.Text)
	}
}

// TestBadRequests covers the validation surface: malformed JSON, unknown
// fields, unknown workloads/LLCs/artifacts, empty batches, unknown ids,
// and premature result fetches.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{`, http.StatusBadRequest},
		{"unknown field", `{"wrkload":"cg"}`, http.StatusBadRequest},
		{"missing llc", `{"workload":"cg"}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope","llc":"SRAM"}`, http.StatusBadRequest},
		{"unknown llc", `{"workload":"cg","llc":"nope"}`, http.StatusBadRequest},
		{"unknown config", `{"workload":"cg","llc":"SRAM","config":"huh"}`, http.StatusBadRequest},
		{"unknown artifact", `{"type":"artifact","artifact":"nope"}`, http.StatusBadRequest},
		{"unknown type", `{"type":"frobnicate"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if code := postJSON(t, ts.URL+"/v1/jobs/batch", batchRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch: HTTP %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown id: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown id result: HTTP %d, want 404", code)
	}
}

// TestInvalidMachineRejectedAtAdmission: a spec whose compiled machine
// fails system.Config.Validate (65 cores; the simulator allows 1..64),
// or whose resolved thread count the generator or the machine refuses
// (65 threads, or 8 threads on the default 4 cores), answers 400 and
// counts as invalid; no job is admitted or simulated. A single-threaded
// workload resolves to 1 thread, so 8 threads on bzip2 is admitted.
func TestInvalidMachineRejectedAtAdmission(t *testing.T) {
	reg := telemetry.New()
	eng := engine.New()
	_, ts := newTestServer(t, Config{Registry: reg, Engine: eng})
	cases := []struct{ spec, want string }{
		{`{"workload":"bzip2","llc":"SRAM","cores":65}`, "cores = 65"},
		{`{"workload":"cg","llc":"SRAM","threads":65}`, "threads = 65"},
		{`{"workload":"cg","llc":"SRAM","threads":8}`, "threads = 8 exceeds cores = 4"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", c.spec, resp.StatusCode)
		}
		if !strings.Contains(body.Error, c.want) {
			t.Errorf("%s: error %q does not contain %q", c.spec, body.Error, c.want)
		}
	}
	if got := reg.Counter("serve_jobs_total", "outcome", "invalid").Value(); got != uint64(len(cases)) {
		t.Errorf("invalid count = %d, want %d", got, len(cases))
	}
	if got := eng.Stats().Jobs(); got != 0 {
		t.Errorf("engine ran %d jobs for rejected specs", got)
	}
	if _, err := buildSimJob(JobSpec{Workload: "bzip2", LLC: "SRAM", Threads: 8}, 20000); err != nil {
		t.Errorf("single-threaded bzip2 with threads 8 rejected: %v", err)
	}
}

// TestResultBeforeTerminalConflicts: fetching a result for a queued or
// running job answers 409 with the job's current status.
func TestResultBeforeTerminalConflicts(t *testing.T) {
	release := make(chan struct{})
	eng := engine.New()
	s, err := New(Config{Engine: eng, Workers: 1, QueueDepth: 4, DefaultAccesses: 20000})
	if err != nil {
		t.Fatal(err)
	}
	s.testHook = func(*job) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	var v view
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(1), &v); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	var pending view
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &pending); code != http.StatusConflict {
		t.Fatalf("pending result: HTTP %d, want 409", code)
	}
	if pending.Status.Terminal() {
		t.Errorf("pending job reported terminal status %s", pending.Status)
	}
}

// TestStatsEndpoint sanity-checks the aggregate surface.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v view
	if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(1), &v); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitTerminal(t, ts.URL, v.ID)
	var stats struct {
		Engine   engine.Stats `json:"engine"`
		QueueCap int          `json:"queue_cap"`
		Jobs     int          `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Engine.Jobs() != 1 || stats.Jobs != 1 || stats.QueueCap == 0 {
		t.Errorf("stats = %+v, want 1 engine job / 1 tracked job", stats)
	}
}

// TestJobEviction bounds the daemon's job-record memory: finished jobs
// beyond MaxJobs are evicted oldest-first, queued/running never.
func TestJobEviction(t *testing.T) {
	eng := engine.New()
	s, err := New(Config{Engine: eng, MaxJobs: 4, QueueDepth: 16, DefaultAccesses: 20000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	var ids []string
	for i := 0; i < 3; i++ {
		var v view
		if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(1), &v); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		ids = append(ids, v.ID)
		waitTerminal(t, ts.URL, v.ID)
	}
	// Push past MaxJobs; the oldest finished records must go.
	for i := 0; i < 4; i++ {
		var v view
		if code := postJSON(t, ts.URL+"/v1/jobs", simSpec(1), &v); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		waitTerminal(t, ts.URL, v.ID)
	}
	s.mu.Lock()
	tracked := len(s.jobs)
	s.mu.Unlock()
	if tracked > 4+1 { // +1: eviction runs at submit, before the newest finishes
		t.Errorf("tracking %d job records, want ≤ %d", tracked, 5)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("oldest job still resolvable: HTTP %d, want 404 after eviction", code)
	}
}

// BenchmarkBuildSimJob measures admission's spec compilation, and the
// system.Config.Validate call inside it on its own.
func BenchmarkBuildSimJob(b *testing.B) {
	spec := JobSpec{Workload: "cg", LLC: "Jan_S", Accesses: 100000, Cores: 8, Faults: true}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := buildSimJob(spec, 20000); err != nil {
				b.Fatal(err)
			}
		}
	})
	j, err := buildSimJob(spec, 20000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := j.Config.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
