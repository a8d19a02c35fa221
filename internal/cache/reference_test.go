package cache

// refStore is the pre-SoA slice-of-struct tag store, retained verbatim as
// a test oracle: the property tests (property_test.go) replay random
// operation streams through it and the packed struct-of-arrays store and
// require identical behavior. Do not optimize this code: its value is
// being the unchanged baseline.

// line is one cache way of the reference layout.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	rrpv  uint8 // SRRIP re-reference prediction value
}

type refStore struct {
	ways     int
	setMask  uint64
	lines    []line // sets × ways; LRU keeps index 0 = MRU
	stats    Stats
	policy   Policy
	rngState uint64 // Random policy victim-selection state
	// disabled mirrors Cache.disabled for the fault-degradation model
	// (per-set condemned-way counts); nil keeps every historical path
	// untouched. The capped variants below are the only post-SoA addition
	// to this file.
	disabled []uint8
}

func newRefStore(sets, ways int, policy Policy, seed uint64) *refStore {
	return &refStore{
		ways:     ways,
		setMask:  uint64(sets - 1),
		lines:    make([]line, sets*ways),
		policy:   policy,
		rngState: seed,
	}
}

func (c *refStore) Access(lineAddr uint64, isWrite bool) (hit bool, ev Eviction) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			c.stats.Hits++
			if isWrite {
				set[i].dirty = true
			}
			c.onHit(set, i)
			return true, Eviction{}
		}
	}
	c.stats.Misses++
	ev = c.fill(set, lineAddr, isWrite)
	return false, ev
}

func (c *refStore) Touch(lineAddr uint64, isWrite bool) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			c.stats.Hits++
			if isWrite {
				set[i].dirty = true
			}
			c.onHit(set, i)
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refStore) Probe(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

func (c *refStore) Install(lineAddr uint64, dirty bool) Eviction {
	set := c.set(lineAddr)
	// If already present, just update dirtiness and recency.
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].dirty = set[i].dirty || dirty
			c.onHit(set, i)
			return Eviction{}
		}
	}
	return c.fill(set, lineAddr, dirty)
}

func (c *refStore) WritebackTo(lineAddr uint64) (wasPresent bool, ev Eviction) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].dirty = true
			c.onHit(set, i)
			return true, Eviction{}
		}
	}
	return false, c.fill(set, lineAddr, true)
}

func (c *refStore) Clean(lineAddr uint64) (present, wasDirty bool) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			wasDirty = set[i].dirty
			set[i].dirty = false
			return true, wasDirty
		}
	}
	return false, false
}

func (c *refStore) Invalidate(lineAddr uint64) (present, dirty bool) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			present, dirty = true, set[i].dirty
			if c.policy == LRU {
				// Keep LRU sets compacted: valid lines first.
				copy(set[i:], set[i+1:])
				set[len(set)-1] = line{}
			} else {
				set[i] = line{}
			}
			return present, dirty
		}
	}
	return false, false
}

// fill installs a tag, evicting the policy's victim if the set is full.
func (c *refStore) fill(set []line, tag uint64, dirty bool) Eviction {
	if c.disabled != nil {
		if d := c.disabled[tag&c.setMask]; d > 0 {
			return c.fillCapped(set, tag, dirty, int(d))
		}
	}
	c.stats.Fills++
	vi := emptyWayIndex(set)
	ev := Eviction{}
	if vi < 0 {
		vi = c.victimIndex(set)
		victim := set[vi]
		ev = Eviction{LineAddr: victim.tag, Dirty: victim.dirty, Valid: true}
		if victim.dirty {
			c.stats.Writebacks++
		}
	}
	c.place(set, vi, line{tag: tag, valid: true, dirty: dirty})
	return ev
}

// fillCapped is fill for a set with d disabled ways: the set is full at
// occupancy ways−d, and a dead set (d == ways) refuses the install.
func (c *refStore) fillCapped(set []line, tag uint64, dirty bool, d int) Eviction {
	capWays := c.ways - d
	if capWays == 0 {
		return Eviction{}
	}
	valid := 0
	for i := range set {
		if set[i].valid {
			valid++
		}
	}
	c.stats.Fills++
	ev := Eviction{}
	var vi int
	if valid >= capWays {
		vi = c.victimIndexCapped(set, valid)
		victim := set[vi]
		ev = Eviction{LineAddr: victim.tag, Dirty: victim.dirty, Valid: true}
		if victim.dirty {
			c.stats.Writebacks++
		}
	} else {
		vi = emptyWayIndex(set)
	}
	c.place(set, vi, line{tag: tag, valid: true, dirty: dirty})
	return ev
}

// victimIndexCapped picks the eviction victim among the valid ways of a
// set that is full at reduced associativity. Selections match the packed
// layout's victimWayCapped line for line: LRU evicts the last compacted
// (least recent) valid line, SRRIP scans and ages only valid ways, and
// Random maps one RNG draw onto the valid-th slot.
func (c *refStore) victimIndexCapped(set []line, valid int) int {
	switch c.policy {
	case LRU:
		return valid - 1 // LRU sets stay compacted, valid lines first
	case SRRIP:
		for {
			for i := range set {
				if set[i].valid && set[i].rrpv >= rrpvMax {
					return i
				}
			}
			for i := range set {
				if set[i].valid && set[i].rrpv < rrpvMax {
					set[i].rrpv++
				}
			}
		}
	default: // Random
		c.rngState = c.rngState*6364136223846793005 + 1442695040888963407
		idx := int((c.rngState >> 33) % uint64(valid))
		for i := range set {
			if !set[i].valid {
				continue
			}
			if idx == 0 {
				return i
			}
			idx--
		}
		return 0 // unreachable: valid ways exist
	}
}

// DisableWay mirrors Cache.DisableWay for the reference layout.
func (c *refStore) DisableWay(set int) {
	if c.disabled == nil {
		c.disabled = make([]uint8, int(c.setMask)+1)
	}
	if int(c.disabled[set]) < c.ways {
		c.disabled[set]++
	}
}

func (c *refStore) disabledWays(set int) int {
	if c.disabled == nil {
		return 0
	}
	return int(c.disabled[set])
}

// set returns the ways of the set holding lineAddr, MRU first under LRU.
func (c *refStore) set(lineAddr uint64) []line {
	idx := int(lineAddr&c.setMask) * c.ways
	return c.lines[idx : idx+c.ways]
}

// onHit updates replacement state for a hit at index i of the set.
func (c *refStore) onHit(set []line, i int) {
	switch c.policy {
	case LRU:
		l := set[i]
		copy(set[1:i+1], set[:i])
		set[0] = l
	case SRRIP:
		set[i].rrpv = 0
	default: // Random: no state
	}
}

// victimIndex picks the way to evict from a full set.
func (c *refStore) victimIndex(set []line) int {
	switch c.policy {
	case LRU:
		return len(set) - 1
	case SRRIP:
		for {
			for i := range set {
				if set[i].rrpv >= rrpvMax {
					return i
				}
			}
			for i := range set {
				if set[i].rrpv < rrpvMax {
					set[i].rrpv++
				}
			}
		}
	default: // Random
		c.rngState = c.rngState*6364136223846793005 + 1442695040888963407
		return int((c.rngState >> 33) % uint64(len(set)))
	}
}

// place installs a new line over the victim at index vi, maintaining
// policy state.
func (c *refStore) place(set []line, vi int, l line) {
	switch c.policy {
	case LRU:
		copy(set[1:vi+1], set[:vi])
		l.rrpv = 0
		set[0] = l
	case SRRIP:
		l.rrpv = rrpvInsert
		set[vi] = l
	default:
		set[vi] = l
	}
}

// emptyWayIndex returns the index of an invalid way, or -1 if the set is
// full.
func emptyWayIndex(set []line) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	return -1
}

func (c *refStore) occupiedLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid {
			n++
		}
	}
	return n
}

func (c *refStore) dirtyLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid && l.dirty {
			n++
		}
	}
	return n
}
