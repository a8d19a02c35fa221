package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmllc/internal/system"
)

// TestDiskCacheRoundTrip pins the basic store contract: a stored result
// loads back equal, survives a fresh open (the boot sweep indexes it),
// and the key appears in Keys.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(t, "bzip2", smallOpts())
	key, _ := Key(j)
	want, err := New().Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Store(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(key)
	if !ok {
		t.Fatal("stored entry did not load")
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Error("loaded result differs from stored result")
	}

	// Reopen: the warm-start sweep must re-index the entry.
	c2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 || len(c2.Keys()) != 1 || c2.Keys()[0] != key {
		t.Errorf("reopened cache: Len=%d Keys=%v, want the one stored key", c2.Len(), c2.Keys())
	}
	if _, ok := c2.Load(key); !ok {
		t.Error("reopened cache missed the stored entry")
	}
}

// corruptOneEntry flips bytes in the payload of the single cache file.
func corruptOneEntry(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+storeExt))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no cache entries to corrupt (err=%v)", err)
	}
	p := matches[0]
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDiskCacheCorruptionIsAMiss: a flipped payload byte fails the
// checksum, loads as a miss (not an error) and quarantines the file.
func TestDiskCacheCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(t, "bzip2", smallOpts())
	key, _ := Key(j)
	res, err := New().Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store(key, res); err != nil {
		t.Fatal(err)
	}
	p := corruptOneEntry(t, dir)
	if _, ok := c.Load(key); ok {
		t.Fatal("corrupt entry loaded as a hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("corrupt entry was not quarantined")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 corrupt", s)
	}
}

// TestDiskCacheVersionSkew: entries of another format version are
// invisible — skipped (and counted corrupt) by the boot sweep and missed
// by Load. Version 1 is the format whose keys were hashed from fmt
// renderings of the job; a directory written by it must read as empty.
func TestDiskCacheVersionSkew(t *testing.T) {
	for _, version := range []int{1, StoreFormatVersion + 1} {
		dir := t.TempDir()
		c, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		j := testJob(t, "bzip2", smallOpts())
		key, _ := Key(j)
		res, err := New().Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Store(key, res); err != nil {
			t.Fatal(err)
		}
		// Rewrite the header with the other version.
		p := filepath.Join(dir, key+storeExt)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s := string(raw)
		s = strings.Replace(s, fmt.Sprintf(`"version":%d`, StoreFormatVersion), fmt.Sprintf(`"version":%d`, version), 1)
		if s == string(raw) {
			t.Fatal("test fixture: version field not found in header")
		}
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Len() != 0 || c2.Stats().Corrupt != 1 {
			t.Errorf("version %d: boot sweep indexed %d entries and counted %d corrupt, want 0 and 1", version, c2.Len(), c2.Stats().Corrupt)
		}
		if _, ok := c2.Load(key); ok {
			t.Errorf("version %d: stale-version entry loaded as a hit", version)
		}
	}
}

// TestDiskCacheBootDeletesStaleEntries: the boot sweep deletes a file
// that fails its header check, so the first boot over a version-1 entry
// counts it corrupt once and the next boot finds nothing to count.
func TestDiskCacheBootDeletesStaleEntries(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("ab", 32)
	// A well-formed entry in every respect but its version.
	sum := sha256.Sum256([]byte("{}"))
	entry := fmt.Sprintf(`{"format":%q,"version":1,"key":%q,"payload_sha256":%q,"payload_bytes":2}`+"\n{}",
		storeFormatName, key, hex.EncodeToString(sum[:]))
	p := filepath.Join(dir, key+storeExt)
	if err := os.WriteFile(p, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	for boot, want := range []uint64{1, 0} {
		c, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Corrupt; got != want || c.Len() != 0 {
			t.Errorf("boot %d: %d corrupt, %d indexed; want %d and 0", boot+1, got, c.Len(), want)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("boot %d: stale entry still present (stat err %v)", boot+1, err)
		}
	}
}

// TestDiskCacheRejectsTraversalKeys: keys that would escape the cache
// directory are refused.
func TestDiskCacheRejectsTraversalKeys(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", ".", "..", "../evil", "a/b", `a\b`} {
		if err := c.Store(key, &system.Result{}); err == nil {
			t.Errorf("Store accepted unusable key %q", key)
		}
		if _, ok := c.Load(key); ok {
			t.Errorf("Load hit on unusable key %q", key)
		}
	}
}

// TestEngineStoreWarmRestart is the restart scenario: a second engine
// sharing only the on-disk cache answers every previously computed key
// with zero simulations, and those hits count as Cached so Jobs() still
// equals submissions.
func TestEngineStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		testJob(t, "bzip2", smallOpts()),
		testJob(t, "is", smallOpts()),
	}
	e1 := New(WithStore(store))
	if _, err := e1.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if s := e1.Stats(); s.Simulated != 2 {
		t.Fatalf("first engine: stats = %+v, want 2 simulated", s)
	}

	// "Restart": fresh engine, fresh DiskCache over the same directory.
	store2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != 2 {
		t.Fatalf("boot sweep indexed %d entries, want 2", store2.Len())
	}
	e2 := New(WithStore(store2))
	res, err := e2.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("job %d: nil result from warm cache", i)
		}
	}
	if s := e2.Stats(); s.Simulated != 0 || s.Cached != 2 || s.Jobs() != 2 {
		t.Errorf("warm restart: stats = %+v, want 0 simulated / 2 cached", s)
	}

	// Corrupt one entry: the third engine re-simulates exactly that key.
	corruptOneEntry(t, dir)
	store3, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e3 := New(WithStore(store3))
	if _, err := e3.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if s := e3.Stats(); s.Simulated != 1 || s.Cached != 1 {
		t.Errorf("after corruption: stats = %+v, want 1 simulated / 1 cached", s)
	}
}

// TestEngineStoreTimelineUpgrade: a persisted timeline-less result does
// not satisfy a sampled job — the engine re-simulates and overwrites the
// stored entry with the enriched one, which then serves sampled jobs
// across a restart.
func TestEngineStoreTimelineUpgrade(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	plain := testJob(t, "bzip2", smallOpts())
	if _, err := New(WithStore(store)).Run(context.Background(), plain); err != nil {
		t.Fatal(err)
	}

	sampled := plain
	sampled.Config.Timeline = &system.TimelineConfig{Points: 16}
	store2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(WithStore(store2))
	r, err := e2.Run(context.Background(), sampled)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline == nil {
		t.Fatal("sampled job served a persisted timeline-less result without re-simulating")
	}
	if s := e2.Stats(); s.Simulated != 1 || s.Cached != 0 {
		t.Errorf("stats = %+v, want 1 simulated (stored entry unusable for sampling)", s)
	}

	// The overwritten entry now answers sampled jobs from disk.
	store3, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e3 := New(WithStore(store3))
	r3, err := e3.Run(context.Background(), sampled)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Timeline == nil {
		t.Error("persisted upgraded entry lost its timeline")
	}
	if s := e3.Stats(); s.Simulated != 0 || s.Cached != 1 {
		t.Errorf("stats = %+v, want a pure disk hit", s)
	}
}
