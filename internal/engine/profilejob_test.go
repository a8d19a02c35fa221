package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"nvmllc/internal/profile"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// testProfileJob builds a small streaming profile job.
func testProfileJob(t *testing.T, name string, opts workload.Options) ProfileJob {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return StreamProfileJob(p, opts, profile.Config{SetCounts: []int{256, 512, 1024}})
}

func TestRunProfileCachesSecondCall(t *testing.T) {
	e := New()
	pj := testProfileJob(t, "bzip2", smallOpts())
	p1, err := e.RunProfile(context.Background(), pj)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.RunProfile(context.Background(), pj)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second RunProfile did not return the memoized profile")
	}
	s := e.Stats()
	if s.Profiles != 1 || s.ProfileHits != 1 {
		t.Errorf("stats = %d profiled / %d hits, want 1/1", s.Profiles, s.ProfileHits)
	}
}

func TestProfileKeyDomainsAndDefaults(t *testing.T) {
	pj := testProfileJob(t, "bzip2", smallOpts())
	key, ok := ProfileKey(pj)
	if !ok || key == "" {
		t.Fatal("profile job unexpectedly uncacheable")
	}
	// A zero MaxWays and the explicit default must share an identity.
	expl := pj
	expl.Config.MaxWays = profile.DefaultMaxWays
	expl.Config.BlockBytes = profile.DefaultBlockBytes
	if k2, _ := ProfileKey(expl); k2 != key {
		t.Error("defaulted and explicit configs hash differently")
	}
	// Different geometry cover, filter hierarchy, or NoCache change identity.
	alt := pj
	alt.Config.SetCounts = []int{128}
	if k2, _ := ProfileKey(alt); k2 == key {
		t.Error("different set counts share a key")
	}
	filt := pj
	filt.Hierarchy = &profile.Hierarchy{
		BlockBytes: 64,
		L1I:        profile.LevelSpec{CapacityBytes: 32 << 10, Ways: 4},
		L1D:        profile.LevelSpec{CapacityBytes: 32 << 10, Ways: 8},
		L2:         profile.LevelSpec{CapacityBytes: 256 << 10, Ways: 8},
	}
	if k2, _ := ProfileKey(filt); k2 == key {
		t.Error("filtered and raw profiles share a key")
	}
	nc := pj
	nc.NoCache = true
	if _, ok := ProfileKey(nc); ok {
		t.Error("NoCache profile job reported cacheable")
	}
}

// TestJobsExcludesProfiles is the satellite regression test: profile
// requests must not disturb the Jobs() == submissions invariant.
func TestJobsExcludesProfiles(t *testing.T) {
	e := New()
	ctx := context.Background()
	j := testJob(t, "bzip2", smallOpts())
	const simSubmissions = 3
	for i := 0; i < simSubmissions; i++ {
		if _, err := e.Run(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	pj := testProfileJob(t, "bzip2", smallOpts())
	for i := 0; i < 4; i++ {
		if _, err := e.RunProfile(ctx, pj); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if got := s.Jobs(); got != simSubmissions {
		t.Errorf("Jobs() = %d, want %d simulation submissions", got, simSubmissions)
	}
	if s.Profiles != 1 || s.ProfileHits != 3 {
		t.Errorf("profile counters = %d/%d, want 1 computed / 3 hits", s.Profiles, s.ProfileHits)
	}
}

// TestRunProfileSingleflight checks concurrent identical requests share
// one pass.
func TestRunProfileSingleflight(t *testing.T) {
	e := New()
	pj := testProfileJob(t, "bzip2", smallOpts())
	var wg sync.WaitGroup
	profs := make([]*profile.Profile, 8)
	for i := range profs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := e.RunProfile(context.Background(), pj)
			if err != nil {
				t.Error(err)
				return
			}
			profs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(profs); i++ {
		if profs[i] != profs[0] {
			t.Fatalf("request %d got a different profile instance", i)
		}
	}
	if s := e.Stats(); s.Profiles != 1 {
		t.Errorf("Profiles = %d, want 1", s.Profiles)
	}
}

// TestProfileTraceSharing checks a profile job and a simulation job over
// the same (workload, options) share one trace materialization.
func TestProfileTraceSharing(t *testing.T) {
	e := New(WithParallelism(1))
	ctx := context.Background()
	p, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{Accesses: 20000, Threads: 4, Seed: 3}
	sim := StreamJob(p, opts, testJob(t, "ft", opts).Config)
	pins := e.pinShares(shareKeys([]Job{sim}))
	defer pins()
	if _, err := e.RunProfile(ctx, StreamProfileJob(p, opts, profile.Config{SetCounts: []int{512}})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx, sim); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TraceGens != 1 || s.TraceShared != 1 {
		t.Errorf("trace sharing = %d gens / %d shared, want 1/1", s.TraceGens, s.TraceShared)
	}
}

// TestProfilePersistence round-trips a profile through a DiskCache: a
// fresh engine over the same store must answer from disk without
// re-profiling.
func TestProfilePersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pj := testProfileJob(t, "bzip2", smallOpts())
	e1 := New(WithStore(store))
	want, err := e1.RunProfile(context.Background(), pj)
	if err != nil {
		t.Fatal(err)
	}
	if s := e1.Stats(); s.Profiles != 1 {
		t.Fatalf("first engine profiled %d times, want 1", s.Profiles)
	}

	store2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(WithStore(store2))
	got, err := e2.RunProfile(context.Background(), pj)
	if err != nil {
		t.Fatal(err)
	}
	s := e2.Stats()
	if s.Profiles != 0 || s.ProfileHits != 1 {
		t.Errorf("second engine = %d profiled / %d hits, want 0/1", s.Profiles, s.ProfileHits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("profile changed across the persistence round trip")
	}
	// Corrupting the entry degrades to a miss and a fresh pass.
	matches, err := filepath.Glob(filepath.Join(dir, "*"+profileStoreExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("profile entries on disk: %v, %v", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	store3, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e3 := New(WithStore(store3))
	re, err := e3.RunProfile(context.Background(), pj)
	if err != nil {
		t.Fatal(err)
	}
	if s := e3.Stats(); s.Profiles != 1 {
		t.Errorf("corrupt entry did not degrade to re-profiling (%d passes)", s.Profiles)
	}
	if !reflect.DeepEqual(re, want) {
		t.Error("re-profiled result differs from original")
	}
}

// TestProfileSpanParentedLikeSimulate checks the "profile" span is
// emitted and parented to the context span, exactly as "simulate" is.
func TestProfileSpanParentedLikeSimulate(t *testing.T) {
	reg := telemetry.New()
	e := New(WithTelemetry(reg))
	parent := reg.StartSpan("figure", nil)
	ctx := telemetry.ContextWithSpan(context.Background(), parent)
	if _, err := e.RunProfile(ctx, testProfileJob(t, "bzip2", smallOpts())); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx, testJob(t, "bzip2", smallOpts())); err != nil {
		t.Fatal(err)
	}
	parent.End()
	var profSpan, simSpan *telemetry.SpanRecord
	var parentID uint64
	for _, s := range reg.Spans() {
		s := s
		switch s.Name {
		case "profile":
			profSpan = &s
		case "simulate":
			simSpan = &s
		case "figure":
			parentID = s.ID
		}
	}
	if profSpan == nil || simSpan == nil || parentID == 0 {
		t.Fatalf("missing spans: profile=%v simulate=%v figure=%d", profSpan, simSpan, parentID)
	}
	if profSpan.Parent != parentID {
		t.Errorf("profile span parent = %d, want %d (the figure span), like simulate's %d",
			profSpan.Parent, parentID, simSpan.Parent)
	}
	if simSpan.Parent != parentID {
		t.Errorf("simulate span parent = %d, want %d", simSpan.Parent, parentID)
	}
	found := false
	for _, a := range profSpan.Attrs {
		if a.Key == "workload" && a.Value == "bzip2" {
			found = true
		}
	}
	if !found {
		t.Error("profile span missing workload attribute")
	}
}
