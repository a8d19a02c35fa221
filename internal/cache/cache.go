// Package cache implements the set-associative, write-back caches of the
// simulated Gainestown memory hierarchy (Table IV of the paper): private
// L1I/L1D and L2 caches per core and a shared LLC.
//
// Cache models a single level with true-LRU replacement, write-back and
// write-allocate policy, operating on line addresses (byte address >>
// log2(block size) is performed by the caller or via the Line helper).
//
// The tag store is a packed struct-of-arrays layout: a flat tags []uint64
// array scanned per set (one cache line covers an 8-way set; empty ways
// hold a reserved sentinel so the residency scan is a single uint64
// compare per way with no metadata load), valid/dirty/RRPV bits packed
// into a parallel meta []uint8 array, and LRU recency kept as monotonic
// per-line stamps — a hit is one store instead of shuffling 16-byte line
// structs. The pre-SoA slice-of-struct implementation survives only as a
// test oracle (reference_test.go) that the property tests replay against
// this store.
package cache

import (
	"fmt"
	"math/bits"
)

// Stats counts cache events.
type Stats struct {
	// Hits and Misses count lookups by outcome.
	Hits, Misses uint64
	// Writebacks counts dirty lines evicted (writes propagated downstream).
	Writebacks uint64
	// Fills counts lines installed: one per allocating miss from Access,
	// WritebackTo or Install. Non-allocating lookups (Touch) miss without
	// filling, so Fills ≤ Misses in general and the two are equal only
	// when every lookup goes through the allocate-on-miss Access path.
	Fills uint64
}

// Accesses is hits plus misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// HitRate returns hits/accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits) / float64(a)
}

// String renders a one-line summary (mirroring engine.Stats.String).
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%.1f%% hit rate), %d fills, %d writebacks",
		s.Hits, s.Misses, 100*s.HitRate(), s.Fills, s.Writebacks)
}

// Add accumulates another stats block.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Writebacks += o.Writebacks
	s.Fills += o.Fills
}

// meta bit layout: valid and dirty flags plus the 2-bit SRRIP RRPV.
const (
	metaValid     uint8 = 1 << 0
	metaDirty     uint8 = 1 << 1
	metaRRPVShift       = 2
	metaRRPVMask  uint8 = 3 << metaRRPVShift
)

// invalidTag occupies empty ways in the packed tag array, so the
// residency scan needs no metadata load: a way matches iff its tag
// equals the probed line address, and no real line address can equal the
// sentinel (a line address is a byte address right-shifted by at least
// one bit for any block size ≥ 2 — every configuration this simulator
// builds uses 64-byte blocks).
const invalidTag = ^uint64(0)

// Cache is a single-level set-associative write-back cache.
type Cache struct {
	name    string
	ways    int
	sets    int
	setMask uint64
	// tags and meta are the packed struct-of-arrays tag store: sets×ways
	// entries, empty ways holding invalidTag with the matching meta valid
	// bit clear.
	tags []uint64
	meta []uint8
	// stamps holds per-line LRU recency (larger = more recent, assigned
	// from lruClock); nil under SRRIP and Random, whose state lives in
	// meta/rngState. The clock is per cache and monotonic, so stamps are
	// unique and a uint64 cannot wrap within any feasible run.
	stamps   []uint64
	lruClock uint64
	// occ counts valid ways per set, so steady-state fills (every set
	// full) skip the empty-way scan and go straight to victim selection.
	occ []uint8
	// disabled, when non-nil, counts condemned ways per set (wear-driven
	// fault degradation, see internal/fault): a set operates at
	// associativity ways−disabled, and a set with every way disabled is
	// dead (fills are refused). Nil — the common case — keeps the fill
	// path on its historical branch untouched.
	disabled  []uint8
	stats     Stats
	blockBits uint
	policy    Policy
	rngState  uint64 // Random policy victim-selection state
}

// Config describes a cache level.
type Config struct {
	// Name identifies the level in errors and dumps (e.g. "L1D").
	Name string
	// CapacityBytes is the total data capacity.
	CapacityBytes int64
	// BlockBytes is the line size.
	BlockBytes int
	// Ways is the associativity.
	Ways int
	// Policy is the replacement policy (zero value: LRU).
	Policy Policy
	// VictimSeed seeds the Random policy's victim RNG. Zero (the
	// default) derives the seed from the level name and geometry, so
	// same-shaped caches at different levels pick independent victim
	// sequences; set it explicitly to pin a seed when seed-state
	// comparisons must stay reproducible across differently-named caches.
	VictimSeed uint64
}

// Validate checks the configuration; New and the hybrid-LLC construction
// path in internal/system both run it before building a cache.
func (cfg Config) Validate() error {
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d must be a positive power of two", cfg.Name, cfg.BlockBytes)
	}
	if cfg.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", cfg.Name, cfg.Ways)
	}
	if cfg.Ways > 255 {
		return fmt.Errorf("cache %s: ways %d exceeds the associativity limit 255", cfg.Name, cfg.Ways)
	}
	if !cfg.Policy.Valid() {
		return fmt.Errorf("cache %s: unknown replacement policy %d", cfg.Name, int(cfg.Policy))
	}
	setBytes := int64(cfg.BlockBytes) * int64(cfg.Ways)
	if cfg.CapacityBytes <= 0 || cfg.CapacityBytes%setBytes != 0 {
		return fmt.Errorf("cache %s: capacity %d not a positive multiple of set size %d", cfg.Name, cfg.CapacityBytes, setBytes)
	}
	sets := cfg.CapacityBytes / setBytes
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", cfg.Name, sets)
	}
	return nil
}

// sets returns the validated set count.
func (cfg Config) numSets() int {
	return int(cfg.CapacityBytes / (int64(cfg.BlockBytes) * int64(cfg.Ways)))
}

// victimSeed resolves the Random-policy RNG seed: the explicit override
// when set, otherwise a per-level derivation mixing the name and geometry
// so same-shaped caches at different levels (or levels at different
// cores) do not replay identical victim sequences.
func (cfg Config) victimSeed(sets int) uint64 {
	if cfg.VictimSeed != 0 {
		return cfg.VictimSeed
	}
	// FNV-1a over the name, then splitmix64-style finalization with the
	// geometry folded in. The additive constant keeps the zero-name,
	// zero-geometry corner away from a zero state.
	h := uint64(14695981039346656037)
	for i := 0; i < len(cfg.Name); i++ {
		h ^= uint64(cfg.Name[i])
		h *= 1099511628211
	}
	h ^= uint64(sets)<<32 ^ uint64(cfg.Ways)
	h += 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	if h == 0 {
		h = 0x9E3779B97F4A7C15
	}
	return h
}

// New builds a cache. Capacity must be a power-of-two multiple of
// BlockBytes×Ways so the set count is a power of two.
func New(cfg Config) (*Cache, error) { return NewIn(nil, cfg) }

// NewIn is New carving the tag-store arrays out of the arena, recycling
// their storage across simulator constructions (a nil arena allocates
// fresh).
func NewIn(a *Arena, cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.numSets()
	c := &Cache{
		name:      cfg.Name,
		ways:      cfg.Ways,
		sets:      sets,
		setMask:   uint64(sets - 1),
		blockBits: uint(bits.TrailingZeros64(uint64(cfg.BlockBytes))),
		policy:    cfg.Policy,
		rngState:  cfg.victimSeed(sets),
	}
	lines := sets * cfg.Ways
	c.tags = a.takeTags(lines)
	c.meta = a.takeMeta(lines)
	c.occ = a.takeOcc(sets)
	if cfg.Policy == LRU {
		c.stamps = a.takeStamps(lines)
	}
	return c, nil
}

// Line converts a byte address to this cache's line address.
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.blockBits }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Name returns the configured level name.
func (c *Cache) Name() string { return c.name }

// ReplacementPolicy returns the configured policy.
func (c *Cache) ReplacementPolicy() Policy { return c.policy }

// Stats returns the accumulated event counts.
func (c *Cache) Stats() Stats {
	return c.stats
}

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	// LineAddr is the evicted line address.
	LineAddr uint64
	// Dirty reports whether the line must be written downstream.
	Dirty bool
	// Valid is false when the fill used an empty way (no eviction).
	Valid bool
}

// setBase returns the index of the first way of lineAddr's set.
func (c *Cache) setBase(lineAddr uint64) int {
	return int(lineAddr&c.setMask) * c.ways
}

// findWay scans the set's packed tags for lineAddr, returning the way
// index or -1: one uint64 compare per way over a single contiguous run
// of tags, with no metadata load — empty ways hold invalidTag, which no
// probed line address can equal.
func (c *Cache) findWay(base int, lineAddr uint64) int {
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == lineAddr {
			return i
		}
	}
	return -1
}

// Access performs a lookup for a line address, allocating on miss.
// isWrite marks the line dirty on hit or after the allocate (write-back,
// write-allocate). It returns whether the lookup hit and the eviction, if
// any, caused by the allocation.
func (c *Cache) Access(lineAddr uint64, isWrite bool) (hit bool, ev Eviction) {
	base := c.setBase(lineAddr)
	if i := c.findWay(base, lineAddr); i >= 0 {
		c.stats.Hits++
		if isWrite {
			c.meta[base+i] |= metaDirty
		}
		c.touchHit(base, i)
		return true, Eviction{}
	}
	c.stats.Misses++
	return false, c.fill(base, lineAddr, isWrite)
}

// Geometry exposes the set-index parameters a pre-decoder needs to
// compute set bases without holding the cache: base = (line & mask) × ways.
func (c *Cache) Geometry() (setMask uint64, ways int) { return c.setMask, c.ways }

// AccessAt is Access with the set base precomputed from Geometry: the batch
// pre-decode pass hoists the shift/mask geometry out of the per-access
// hot loop and hands the base in as a lane.
func (c *Cache) AccessAt(base int32, lineAddr uint64, isWrite bool) (hit bool, ev Eviction) {
	b := int(base)
	if i := c.findWay(b, lineAddr); i >= 0 {
		c.stats.Hits++
		if isWrite {
			c.meta[b+i] |= metaDirty
		}
		c.touchHit(b, i)
		return true, Eviction{}
	}
	c.stats.Misses++
	return false, c.fill(b, lineAddr, isWrite)
}

// Touch performs a non-allocating lookup: a hit updates replacement
// state (and optionally dirtiness) and returns true; a miss changes
// nothing. Statistics are counted like Access.
func (c *Cache) Touch(lineAddr uint64, isWrite bool) bool {
	base := c.setBase(lineAddr)
	if i := c.findWay(base, lineAddr); i >= 0 {
		c.stats.Hits++
		if isWrite {
			c.meta[base+i] |= metaDirty
		}
		c.touchHit(base, i)
		return true
	}
	c.stats.Misses++
	return false
}

// Probe checks residency without updating LRU state or statistics.
func (c *Cache) Probe(lineAddr uint64) bool {
	return c.findWay(c.setBase(lineAddr), lineAddr) >= 0
}

// Install inserts a line (e.g. a fill from below in a non-lookup path)
// and returns any eviction. The line is installed clean unless dirty.
func (c *Cache) Install(lineAddr uint64, dirty bool) Eviction {
	base := c.setBase(lineAddr)
	// If already present, just update dirtiness and recency.
	if i := c.findWay(base, lineAddr); i >= 0 {
		if dirty {
			c.meta[base+i] |= metaDirty
		}
		c.touchHit(base, i)
		return Eviction{}
	}
	return c.fill(base, lineAddr, dirty)
}

// WritebackTo marks a resident line dirty (a writeback arriving from an
// upper level). If the line is absent it is installed dirty
// (write-allocate) and the displaced line is returned.
func (c *Cache) WritebackTo(lineAddr uint64) (wasPresent bool, ev Eviction) {
	base := c.setBase(lineAddr)
	if i := c.findWay(base, lineAddr); i >= 0 {
		c.meta[base+i] |= metaDirty
		c.touchHit(base, i)
		return true, Eviction{}
	}
	return false, c.fill(base, lineAddr, true)
}

// Clean clears a resident line's dirty bit without evicting it (a
// coherence downgrade: Modified -> Shared). It reports residency and
// whether the line had been dirty.
func (c *Cache) Clean(lineAddr uint64) (present, wasDirty bool) {
	base := c.setBase(lineAddr)
	i := c.findWay(base, lineAddr)
	if i < 0 {
		return false, false
	}
	wasDirty = c.meta[base+i]&metaDirty != 0
	c.meta[base+i] &^= metaDirty
	return true, wasDirty
}

// Invalidate drops a line if present, returning whether it was dirty.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	base := c.setBase(lineAddr)
	i := c.findWay(base, lineAddr)
	if i < 0 {
		return false, false
	}
	dirty = c.meta[base+i]&metaDirty != 0
	// Dropping a line needs no LRU bookkeeping: the surviving stamps keep
	// their relative order, exactly as the reference layout's compaction
	// preserves the survivors' order.
	c.tags[base+i] = invalidTag
	c.meta[base+i] = 0
	c.occ[lineAddr&c.setMask]--
	return true, dirty
}

// fill installs a tag at the set starting at base, evicting the policy's
// victim if the set is full. The occupancy count routes full sets (the
// steady state) straight to victim selection; non-full sets find a free
// way by scanning the tags for the invalidTag sentinel. Sets with
// disabled ways are full at their reduced associativity, and a dead set
// (every way disabled) refuses the fill outright.
func (c *Cache) fill(base int, tag uint64, dirty bool) Eviction {
	si := int(tag & c.setMask)
	capWays := c.ways
	if c.disabled != nil {
		capWays -= int(c.disabled[si])
		if capWays == 0 {
			return Eviction{}
		}
	}
	c.stats.Fills++
	ev := Eviction{}
	var vi int
	if occ := int(c.occ[si]); occ >= capWays {
		if capWays == c.ways {
			vi = c.victimWay(base)
		} else {
			vi = c.victimWayCapped(base, occ)
		}
		m := c.meta[base+vi]
		ev = Eviction{LineAddr: c.tags[base+vi], Dirty: m&metaDirty != 0, Valid: true}
		if m&metaDirty != 0 {
			c.stats.Writebacks++
		}
	} else {
		vi = c.findWay(base, invalidTag)
		c.occ[si]++
	}
	c.place(base, vi, tag, dirty)
	return ev
}

// SetOf returns the index of the set holding lineAddr.
func (c *Cache) SetOf(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// DisableWay permanently removes one way from a set (a wear-condemned
// cell, see internal/fault), shrinking its associativity by one; victim
// selection re-routes over the surviving ways. The caller must have
// invalidated a resident line first if the set was full at its previous
// capacity — the cache never holds more lines than a set's enabled ways.
func (c *Cache) DisableWay(set int) {
	if c.disabled == nil {
		c.disabled = make([]uint8, c.sets)
	}
	if int(c.disabled[set]) < c.ways {
		c.disabled[set]++
	}
}

// DisabledWays returns the number of condemned ways in a set.
func (c *Cache) DisabledWays(set int) int {
	if c.disabled == nil {
		return 0
	}
	return int(c.disabled[set])
}

// EnabledWays returns a set's surviving associativity.
func (c *Cache) EnabledWays(set int) int { return c.ways - c.DisabledWays(set) }

// OccupiedLines counts currently valid lines (for tests and capacity
// diagnostics).
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, m := range c.meta {
		if m&metaValid != 0 {
			n++
		}
	}
	return n
}

// DirtyLines counts currently dirty lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, m := range c.meta {
		if m&(metaValid|metaDirty) == metaValid|metaDirty {
			n++
		}
	}
	return n
}
