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

	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
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
// invisible to Load. A boot indexes by name alone, so a header of the
// wrong version under a current name is indexed; its first Load misses,
// counts it corrupt and deletes it. Version 1 is the format whose keys
// were hashed from fmt renderings of the job.
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
		p := filepath.Join(dir, key+entrySuffix)
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
		if c2.Len() != 1 || c2.Stats().Corrupt != 0 {
			t.Errorf("version %d: boot indexed %d entries and counted %d corrupt, want 1 and 0", version, c2.Len(), c2.Stats().Corrupt)
		}
		if _, ok := c2.Load(key); ok {
			t.Errorf("version %d: stale-version entry loaded as a hit", version)
		}
		if s := c2.Stats(); s.Corrupt != 1 || s.Entries != 0 {
			t.Errorf("version %d: after Load, stats = %+v, want 1 corrupt and 0 entries", version, s)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("version %d: stale-version entry not deleted (stat err %v)", version, err)
		}
	}
}

// TestDiskCacheBootDeletesStaleEntries: a boot deletes an entry under
// the unversioned name <key>.llcres that format versions 1 and 2 used,
// so the first boot over a version-1 entry counts it corrupt once and
// the next boot finds nothing to count.
func TestDiskCacheBootDeletesStaleEntries(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("ab", 32)
	// A well-formed version-1 entry, under the name version 1 wrote.
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

// TestDiskCacheBootSortsNames: a boot indexes current entry names,
// deletes every other result-tier name (an unversioned entry, a .tmp-*
// write left by a crash, a current suffix on something that is not a
// key) and leaves the profile tier and unrelated files alone.
func TestDiskCacheBootSortsNames(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("0f", 32)
	keep := []string{
		key + entrySuffix,
		key + profileStoreExt,
		".tmp-123" + profileStoreExt,
		"README",
		key + ".v2.json",
	}
	drop := []string{
		key + storeExt,
		".tmp-456" + storeExt,
		strings.ToUpper(key) + entrySuffix,
		"short" + entrySuffix,
		key + ".v1" + storeExt,
		key + ".v" + fmt.Sprint(StoreFormatVersion+1) + storeExt,
	}
	for _, name := range append(append([]string{}, keep...), drop...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys := c.Keys(); len(keys) != 1 || keys[0] != key {
		t.Errorf("boot indexed %v, want only %s", keys, key)
	}
	if got := c.Stats().Corrupt; got != uint64(len(drop)) {
		t.Errorf("boot counted %d corrupt, want %d", got, len(drop))
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("boot removed %s: %v", name, err)
		}
	}
	for _, name := range drop {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("boot kept %s (stat err %v)", name, err)
		}
	}
}

// TestDiskCacheGarbageUnderCurrentName: a boot trusts a current name
// without reading it, so garbage there is indexed (Len 1, Corrupt 0);
// the first Load verifies it, misses, deletes it and counts it corrupt.
func TestDiskCacheGarbageUnderCurrentName(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("c3", 32)
	p := filepath.Join(dir, key+entrySuffix)
	if err := os.WriteFile(p, []byte("not an entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); c.Len() != 1 || s.Corrupt != 0 {
		t.Fatalf("boot: Len %d, stats %+v; want 1 indexed and 0 corrupt", c.Len(), s)
	}
	if _, ok := c.Load(key); ok {
		t.Fatal("garbage entry loaded as a hit")
	}
	if s := c.Stats(); c.Len() != 0 || s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("after Load: Len %d, stats %+v; want 0 indexed, 1 corrupt, 1 miss", c.Len(), s)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Errorf("garbage entry not deleted (stat err %v)", err)
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
// not answer a sampled job, which keys apart and simulates as its own
// design point. Nothing is upgraded in place: the sampled result is
// stored beside the plain one, and after a restart each answers its own
// kind of job from disk.
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
		t.Fatal("sampled job served a persisted timeline-less result")
	}
	if s := e2.Stats(); s.Simulated != 1 || s.Cached != 0 {
		t.Errorf("stats = %+v, want 1 simulated (the sampled job is its own design point)", s)
	}

	// Both entries now answer their own kind of job from disk.
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
		t.Error("persisted sampled entry lost its timeline")
	}
	r4, err := e3.Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Timeline != nil {
		t.Error("plain job was answered by the sampled entry")
	}
	if s := e3.Stats(); s.Simulated != 0 || s.Cached != 2 {
		t.Errorf("stats = %+v, want two pure disk hits", s)
	}
}

// BenchmarkOpenDiskCache boots a directory of 1,197 stored entries, the
// number perfbench's llcsimd workload leaves behind its cold phase. Each
// entry holds the same small simulated result under its own key.
func BenchmarkOpenDiskCache(b *testing.B) {
	const entries = 1197
	p, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	res, err := New().Run(context.Background(), StreamJob(p, smallOpts(), system.Gainestown(reference.SRAMBaseline())))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	c, err := OpenDiskCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint("entry ", i)))
		if err := c.Store(hex.EncodeToString(sum[:]), res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := OpenDiskCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		if c.Len() != entries {
			b.Fatalf("boot indexed %d entries, want %d", c.Len(), entries)
		}
	}
}
