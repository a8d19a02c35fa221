package engine

// Persistent result cache: a second tier behind the engine's in-memory
// map, so the design points a process has paid for survive restarts and
// can be shipped between machines. The on-disk layout is content-
// addressed by the engine's deterministic SHA-256 job key — one file per
// design point, named <key>.v<version>.llcres — and every file is
// self-describing: a one-line JSON header (format name, version, key,
// payload checksum) followed by the JSON-encoded system.Result. The
// version in the name lets a boot index the directory from its listing
// alone; loads verify the header and the payload checksum, and anything
// that does not verify is treated as a miss (and quarantined by
// deletion), never as an error — a corrupt cache degrades to
// re-simulation.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nvmllc/internal/profile"
	"nvmllc/internal/system"
)

// CacheStore is a persistent result-cache backend. Implementations must
// be safe for concurrent use; Load must treat unreadable or corrupt
// entries as misses so callers always have the re-simulation fallback.
type CacheStore interface {
	// Load returns the stored result for key, or false when the store has
	// no valid entry. The returned result must be treated as immutable.
	Load(key string) (*system.Result, bool)
	// Store persists the result under key, replacing any prior entry.
	Store(key string, res *system.Result) error
	// Keys lists the keys the store believes it holds (the boot-sweep
	// index for a disk store); order is unspecified.
	Keys() []string
}

// ProfileStore is an optional extension a CacheStore may implement to
// persist reuse-distance profiles (profilejob.go) alongside results.
// The engine type-asserts for it; a store without the extension simply
// keeps profiles memory-only. The same miss-on-corruption contract as
// Load applies.
type ProfileStore interface {
	// LoadProfile returns the stored profile for key, or false when the
	// store has no valid entry.
	LoadProfile(key string) (*profile.Profile, bool)
	// StoreProfile persists the profile under key.
	StoreProfile(key string, p *profile.Profile) error
}

// StoreFormatVersion is the on-disk entry format version, carried both
// in each entry's header and in its file name. Bumping it invalidates
// every existing entry: the next boot deletes the old names unread, so
// old caches silently degrade to re-simulation instead of decoding
// garbage. Bump whenever the serialized form of system.Result changes
// incompatibly or the cache key function changes what it hashes.
const StoreFormatVersion = 2

// storeFormatName guards against feeding some other tool's files to the
// decoder.
const storeFormatName = "nvmllc-result-cache"

// storeExt is the result tier's file suffix: every name ending in it is
// the tier's to index or delete.
const storeExt = ".llcres"

// entrySuffix follows the key in a current entry's file name. Entries
// written before the version joined the name are <key>.llcres, whatever
// their header says; a boot deletes them like any other stale name.
var entrySuffix = ".v" + strconv.Itoa(StoreFormatVersion) + storeExt

// isKey reports whether s has the shape of an engine job key: 64
// lower-case hex digits (a hex SHA-256), so it can never escape the
// cache directory.
func isKey(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// profileFormatName and profileStoreExt are the profile tier's
// counterparts: profiles live beside results in the same directory,
// under their own suffix and format name so neither decoder can ever be
// fed the other's files. Profile keys are already a distinct SHA-256
// domain (ProfileKey), making collisions doubly impossible.
const (
	profileFormatName = "nvmllc-profile-cache"
	profileStoreExt   = ".llcprof"
)

// storeHeader is the one-line JSON header preceding the payload.
type storeHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Key     string `json:"key"`
	// SHA256 is the hex digest of the payload bytes; Bytes their count.
	SHA256 string `json:"payload_sha256"`
	Bytes  int64  `json:"payload_bytes"`
}

// DiskCacheStats counts store activity since OpenDiskCache.
type DiskCacheStats struct {
	// Entries is the number of entries indexed at boot plus stores since;
	// Hits/Misses count Load outcomes; Corrupt counts discarded files: at
	// boot, result-tier names that are not a current entry's; on load,
	// entries that failed verification. Stores counts successful writes.
	Entries, Hits, Misses, Corrupt, Stores uint64
}

// DiskCache is the on-disk CacheStore: one atomic, checksummed file per
// key in a flat directory. Safe for concurrent use.
type DiskCache struct {
	dir string

	mu    sync.Mutex
	index map[string]bool

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
	stores  atomic.Uint64
}

// OpenDiskCache opens (creating if needed) the cache directory and
// indexes it from one listing, opening no entry file: every
// <key>.v<StoreFormatVersion>.llcres name is indexed, so a freshly booted
// process knows immediately which design points it can serve without
// simulating. Every other result-tier name — an older format's entry,
// a .tmp-* write a crash left behind — is deleted unread and counted
// corrupt, never fatal. Entries are verified when they are loaded.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: open disk cache: %w", err)
	}
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: open disk cache: %w", err)
	}
	names, err := f.Readdirnames(-1)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("engine: open disk cache: %w", err)
	}
	c := &DiskCache{dir: dir, index: make(map[string]bool, len(names))}
	for _, name := range names {
		if key, ok := strings.CutSuffix(name, entrySuffix); ok && isKey(key) {
			c.index[key] = true
		} else if strings.HasSuffix(name, storeExt) {
			_ = os.Remove(filepath.Join(dir, name))
			c.corrupt.Add(1)
		}
	}
	return c, nil
}

// Dir is the cache directory.
func (c *DiskCache) Dir() string { return c.dir }

// Len is the number of indexed entries.
func (c *DiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Keys lists the indexed keys.
func (c *DiskCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.index))
	for k := range c.index {
		out = append(out, k)
	}
	return out
}

// Stats snapshots the store counters.
func (c *DiskCache) Stats() DiskCacheStats {
	return DiskCacheStats{
		Entries: uint64(c.Len()),
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Stores:  c.stores.Load(),
	}
}

// path maps a key to its entry file; false for anything but an engine
// job key, the only names a boot indexes.
func (c *DiskCache) path(key string) (string, bool) {
	if !isKey(key) {
		return "", false
	}
	return filepath.Join(c.dir, key+entrySuffix), true
}

// Load reads, verifies and decodes the entry for key. Any failure —
// missing file, malformed header, version skew, checksum mismatch,
// undecodable payload — is a miss; corrupt files are deleted so they
// are paid for at most once.
func (c *DiskCache) Load(key string) (*system.Result, bool) {
	p, ok := c.path(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	res, err := decodeEntry(key, raw)
	if err != nil {
		// Quarantine: a file that fails verification will keep failing;
		// delete it so the slot is rewritten by the re-simulation.
		_ = os.Remove(p)
		c.mu.Lock()
		delete(c.index, key)
		c.mu.Unlock()
		c.corrupt.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	c.index[key] = true
	c.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

// decodeRawEntry verifies an entry's header and checksum against the
// expected format name and returns the payload bytes — the shared
// verification path of the result and profile tiers.
func decodeRawEntry(format, key string, raw []byte) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	var h storeHeader
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if h.Format != format {
		return nil, fmt.Errorf("format %q, want %q", h.Format, format)
	}
	if h.Version != StoreFormatVersion {
		return nil, fmt.Errorf("version %d, want %d", h.Version, StoreFormatVersion)
	}
	if h.Key != key {
		return nil, fmt.Errorf("key mismatch: header %q, file %q", h.Key, key)
	}
	payload := raw[nl+1:]
	if int64(len(payload)) != h.Bytes {
		return nil, fmt.Errorf("payload %d bytes, header says %d", len(payload), h.Bytes)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, fmt.Errorf("payload checksum mismatch")
	}
	return payload, nil
}

// decodeEntry verifies header and checksum and decodes the payload.
func decodeEntry(key string, raw []byte) (*system.Result, error) {
	payload, err := decodeRawEntry(storeFormatName, key, raw)
	if err != nil {
		return nil, err
	}
	res := new(system.Result)
	if err := json.Unmarshal(payload, res); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	return res, nil
}

// Store atomically persists res under key: the entry is written to a
// temp file in the cache directory, synced, and renamed into place, so
// readers (and a crash mid-write) only ever observe complete entries.
func (c *DiskCache) Store(key string, res *system.Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("engine: disk cache: encode %s: %w", key, err)
	}
	p, ok := c.path(key)
	if !ok {
		return fmt.Errorf("engine: disk cache: unusable key %q", key)
	}
	if err := c.writeEntry(p, storeFormatName, key, payload); err != nil {
		return err
	}
	c.mu.Lock()
	c.index[key] = true
	c.mu.Unlock()
	c.stores.Add(1)
	return nil
}

// encodeEntry frames a payload as an entry: a header line naming its
// format, version and key, with the payload's length and SHA-256.
func encodeEntry(format, key string, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	header, err := json.Marshal(storeHeader{
		Format:  format,
		Version: StoreFormatVersion,
		Key:     key,
		SHA256:  hex.EncodeToString(sum[:]),
		Bytes:   int64(len(payload)),
	})
	if err != nil {
		return nil, err
	}
	return append(append(header, '\n'), payload...), nil
}

// writeEntry writes one header+payload entry atomically: temp file in
// the cache directory, synced, renamed into place.
func (c *DiskCache) writeEntry(path, format, key string, payload []byte) error {
	entry, err := encodeEntry(format, key, payload)
	if err != nil {
		return fmt.Errorf("engine: disk cache: encode header %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*"+filepath.Ext(path))
	if err != nil {
		return fmt.Errorf("engine: disk cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write(entry)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("engine: disk cache: write %s: %w", key, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("engine: disk cache: %w", err)
	}
	return nil
}

// profilePath maps a profile key to its entry file.
func (c *DiskCache) profilePath(key string) (string, bool) {
	if key == "" || key != filepath.Base(key) || strings.ContainsAny(key, "/\\") || key == "." || key == ".." {
		return "", false
	}
	return filepath.Join(c.dir, key+profileStoreExt), true
}

// LoadProfile reads, verifies and decodes the profile entry for key
// (the ProfileStore side of the cache). The same degrade-to-miss and
// quarantine discipline as Load applies, sharing the hit/miss/corrupt
// counters; a decoded profile is additionally run through
// profile.Validate so a stale-schema entry can never hand out histogram
// prefix sums that do not add up.
func (c *DiskCache) LoadProfile(key string) (*profile.Profile, bool) {
	p, ok := c.profilePath(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	prof, err := decodeProfileEntry(key, raw)
	if err != nil {
		_ = os.Remove(p)
		c.corrupt.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return prof, true
}

// decodeProfileEntry verifies and decodes one profile entry.
func decodeProfileEntry(key string, raw []byte) (*profile.Profile, error) {
	payload, err := decodeRawEntry(profileFormatName, key, raw)
	if err != nil {
		return nil, err
	}
	prof := new(profile.Profile)
	if err := json.Unmarshal(payload, prof); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return prof, nil
}

// StoreProfile atomically persists a profile under key.
func (c *DiskCache) StoreProfile(key string, prof *profile.Profile) error {
	payload, err := json.Marshal(prof)
	if err != nil {
		return fmt.Errorf("engine: disk cache: encode profile %s: %w", key, err)
	}
	p, ok := c.profilePath(key)
	if !ok {
		return fmt.Errorf("engine: disk cache: unusable profile key %q", key)
	}
	if err := c.writeEntry(p, profileFormatName, key, payload); err != nil {
		return err
	}
	c.stores.Add(1)
	return nil
}
