package cache

import "fmt"

// Policy selects the replacement policy of a cache level. The paper's
// configuration uses true LRU at every level; SRRIP and Random are
// provided for the replacement-policy ablation (the LLC-management
// related work the paper surveys in Section I builds on exactly these
// baselines).
type Policy int

const (
	// LRU is true least-recently-used replacement (the default).
	LRU Policy = iota
	// SRRIP is 2-bit static re-reference interval prediction (Jaleel et
	// al.): lines insert at "long" re-reference, promote to "immediate"
	// on hit, and the victim is the first line predicted "distant".
	SRRIP
	// Random evicts a pseudo-random way (deterministic per cache
	// instance; seeded per level, see Config.VictimSeed).
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case SRRIP:
		return "SRRIP"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Valid reports whether p is a known policy.
func (p Policy) Valid() bool { return p == LRU || p == SRRIP || p == Random }

// rrpv constants for SRRIP (2-bit).
const (
	rrpvMax    = 3 // distant re-reference: eviction candidate
	rrpvInsert = 2 // long re-reference: insertion value
)

// touchHit updates replacement state for a hit on way i of the set at
// base. Under LRU the hit line takes the next clock stamp — one store,
// against the reference layout's copy-to-front shuffle of 16-byte
// structs; the stamps record the same recency order.
func (c *Cache) touchHit(base, i int) {
	switch c.policy {
	case LRU:
		c.lruClock++
		c.stamps[base+i] = c.lruClock
	case SRRIP:
		c.meta[base+i] &^= metaRRPVMask
	default: // Random: no state
	}
}

// lruKey orders a set's ways for LRU eviction: the way's stamp above its
// index, so the minimum key is the least recently used way and a min()
// over keys compiles to conditional moves rather than a mispredicting
// branch. Stamps are unique among valid ways, so the index never decides
// the order, and the shift loses nothing while stamps stay below 2^56
// (one per hit or fill). Ways fit the low byte: Config caps them at 255.
func lruKey(stamp uint64, way int) uint64 { return stamp<<8 | uint64(way) }

// lruWay recovers the way index from the minimum lruKey.
func lruWay(key uint64) int { return int(key & 0xff) }

// victimWay picks the way to evict from a full set (every way valid).
func (c *Cache) victimWay(base int) int {
	switch c.policy {
	case LRU:
		// The LRU line holds the set's minimum stamp (stamps are unique:
		// the clock is monotonic, and a full set means every way was
		// stamped by this cache instance).
		best := ^uint64(0)
		for j, s := range c.stamps[base : base+c.ways] {
			best = min(best, lruKey(s, j))
		}
		return lruWay(best)
	case SRRIP:
		meta := c.meta[base : base+c.ways]
		for {
			for i := range meta {
				if (meta[i]&metaRRPVMask)>>metaRRPVShift >= rrpvMax {
					return i
				}
			}
			for i := range meta {
				if (meta[i]&metaRRPVMask)>>metaRRPVShift < rrpvMax {
					meta[i] += 1 << metaRRPVShift
				}
			}
		}
	default: // Random
		c.rngState = c.rngState*6364136223846793005 + 1442695040888963407
		return int((c.rngState >> 33) % uint64(c.ways))
	}
}

// victimWayCapped picks the eviction victim from a set that is full at a
// reduced associativity (disabled ways leave invalid slots behind, so
// valid ways must be filtered explicitly — the full-set fast paths above
// may not assume every way is live). occ is the set's current valid-way
// count, consumed by the Random policy's index draw. The selections are
// semantically identical to the reference layout's capped variants: LRU
// picks the minimum stamp among valid ways (the reference's last
// compacted line), SRRIP scans and ages only valid ways, and Random maps
// one RNG draw onto the occ-th valid slot. occ ≥ 1, so LRU always has a
// valid way to return.
func (c *Cache) victimWayCapped(base, occ int) int {
	switch c.policy {
	case LRU:
		stamps := c.stamps[base : base+c.ways]
		meta := c.meta[base : base+len(stamps)]
		best := ^uint64(0)
		for j, s := range stamps {
			// metaValid is bit 0, so valid-1 is 0 for a valid way and
			// all ones, never the minimum, for an invalid one.
			best = min(best, lruKey(s, j)|(uint64(meta[j]&metaValid)-1))
		}
		return lruWay(best)
	case SRRIP:
		meta := c.meta[base : base+c.ways]
		for {
			for i := range meta {
				if meta[i]&metaValid != 0 && (meta[i]&metaRRPVMask)>>metaRRPVShift >= rrpvMax {
					return i
				}
			}
			for i := range meta {
				if meta[i]&metaValid != 0 && (meta[i]&metaRRPVMask)>>metaRRPVShift < rrpvMax {
					meta[i] += 1 << metaRRPVShift
				}
			}
		}
	default: // Random
		c.rngState = c.rngState*6364136223846793005 + 1442695040888963407
		idx := int((c.rngState >> 33) % uint64(occ))
		meta := c.meta[base : base+c.ways]
		for i := range meta {
			if meta[i]&metaValid == 0 {
				continue
			}
			if idx == 0 {
				return i
			}
			idx--
		}
		return 0 // unreachable: occ valid ways exist
	}
}

// place installs a new line over way vi (an empty way or the victim),
// maintaining policy state. Under LRU the filled line takes the next
// clock stamp, making it the set's most recent whether the way was empty
// or the evicted minimum.
func (c *Cache) place(base, vi int, tag uint64, dirty bool) {
	m := metaValid
	if dirty {
		m |= metaDirty
	}
	switch c.policy {
	case LRU:
		c.lruClock++
		c.stamps[base+vi] = c.lruClock
	case SRRIP:
		m |= rrpvInsert << metaRRPVShift
	}
	c.tags[base+vi] = tag
	c.meta[base+vi] = m
}
