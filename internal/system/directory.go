package system

// Full-map directory coherence (Table IV: "104K entries/directory
// controller, full-map directory"). The directory tracks which cores hold
// a copy of each line in their private caches; a store from one core
// invalidates the copies in the others, and a dirty remote copy is written
// back through the LLC first. Data values are not modeled (the simulator
// is timing/energy-only), so the directory's job is to reproduce the
// coherence *traffic*: invalidations, remote writebacks, and the extra LLC
// writes they cause on shared, write-shared workloads.
//
// Only a sole holder can hold a line dirty. A store makes its core the
// line's only holder (invalidateOthers), and a load by any other core
// cleans that copy before the loader joins the mask (downgradeOthers),
// so a mask of two or more bits names only clean copies. A load miss
// therefore scans a remote core's tag stores only when that core is the
// line's one holder.

import "math/bits"

// DirectoryStats counts coherence events.
type DirectoryStats struct {
	// Invalidations counts private-cache copies invalidated by remote
	// stores.
	Invalidations uint64
	// RemoteWritebacks counts dirty remote copies flushed to the LLC by an
	// invalidation.
	RemoteWritebacks uint64
	// InterventionStalls counts loads/stores that paid an intervention
	// latency because another core held the line dirty.
	InterventionStalls uint64
}

// directory is a full-map sharers table keyed by line address. A bit set
// in the mask means the corresponding core may hold the line in L1/L2.
// The table is consulted on every private-cache miss, fill and eviction,
// so it uses a specialized open-addressed hash table instead of a Go map
// — line-address keys need no generic hashing, and the sharer mask is
// never zero for a stored entry (noteEvict deletes emptied lines), which
// lets mask==0 mark empty slots.
type directory struct {
	sharers sharerTable
	stats   DirectoryStats
}

// newDirectoryWith builds a directory for a machine whose private
// caches hold at most lines distinct lines, on recycled table storage
// (from a Scratch). The table is a power-of-two view of that storage
// large enough to hold lines entries below the grow threshold; only the
// view is cleared and probed, so a small machine never pays for the
// storage a larger one left behind. A zero table allocates fresh.
func newDirectoryWith(t sharerTable, lines int) *directory {
	d := &directory{sharers: t}
	size := 16
	for 3*size <= 4*lines {
		size <<= 1
	}
	d.sharers.reset(size)
	return d
}

// noteEvict clears core's sharer bit (called when a private cache drops
// the line entirely).
func (d *directory) noteEvict(line uint64, core int) {
	d.sharers.clearBit(line, 1<<uint(core))
}

// soleRemote returns the core that alone held the line before core's
// load joined it. It reports false when the mask was empty, named only
// core itself, or named two or more cores: then no remote copy can be
// dirty and a downgrade has nothing to clean.
func soleRemote(held uint64, core int) (int, bool) {
	if held == 0 || held&(held-1) != 0 || held == 1<<uint(core) {
		return 0, false
	}
	return bits.TrailingZeros64(held), true
}

// sharerEntry is one slot of the table: the line address and its sharer
// mask side by side, so a probe touches one cache line instead of two
// parallel arrays (the table is probed on every private-cache miss, fill
// and eviction — it profiles as one of the simulator's hottest data
// structures, and its misses are DRAM-bound).
type sharerEntry struct {
	key  uint64
	mask uint64
}

// sharerTable is an open-addressed, linear-probed uint64→uint64 hash
// table holding the directory's line→sharer-mask entries. Invariant: a
// stored mask is never zero, so mask==0 marks an empty slot. Entries are
// bounded by total private-cache lines, which newDirectoryWith sizes the
// table for; the table still doubles at 3/4 full.
type sharerTable struct {
	entries []sharerEntry
	shift   uint // 64 - log2(len(entries)), for fibonacci hashing
	used    int
}

// init gives the table fresh, empty storage of size slots (a power of
// two).
func (t *sharerTable) init(size int) {
	t.entries = nil
	t.reset(size)
}

// reset empties the table as a size-slot view (a power of two) of its
// current storage, allocating only when the storage is too small.
func (t *sharerTable) reset(size int) {
	if cap(t.entries) >= size {
		t.entries = t.entries[:size]
		clear(t.entries)
	} else {
		t.entries = make([]sharerEntry, size)
	}
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.used = 0
}

// home is the preferred slot for a key (fibonacci hashing).
func (t *sharerTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the stored mask, or 0 when the line is untracked.
func (t *sharerTable) get(line uint64) uint64 {
	mask := uint64(len(t.entries) - 1)
	for i := t.home(line); ; i = int((uint64(i) + 1) & mask) {
		e := t.entries[i]
		if e.mask == 0 {
			return 0
		}
		if e.key == line {
			return e.mask
		}
	}
}

// fetchOr sets bit in the line's mask, inserting the entry if absent,
// and returns the mask from before.
func (t *sharerTable) fetchOr(line, bit uint64) uint64 {
	return t.put(line, bit, false)
}

// swap replaces the line's mask with bit, inserting the entry if
// absent, and returns the mask from before.
func (t *sharerTable) swap(line, bit uint64) uint64 {
	return t.put(line, bit, true)
}

// put is fetchOr (replace false) and swap (replace true) in one probe.
func (t *sharerTable) put(line, bit uint64, replace bool) uint64 {
	mask := uint64(len(t.entries) - 1)
	for i := t.home(line); ; i = int((uint64(i) + 1) & mask) {
		e := &t.entries[i]
		if e.mask == 0 {
			e.key = line
			e.mask = bit
			if t.used++; 4*t.used >= 3*len(t.entries) {
				t.grow()
			}
			return 0
		}
		if e.key == line {
			old := e.mask
			if replace {
				e.mask = bit
			} else {
				e.mask |= bit
			}
			return old
		}
	}
}

// clearBit clears bit in the line's mask, deleting the entry when the
// mask empties. Unknown lines are a no-op.
func (t *sharerTable) clearBit(line, bit uint64) {
	mask := uint64(len(t.entries) - 1)
	for i := t.home(line); ; i = int((uint64(i) + 1) & mask) {
		e := &t.entries[i]
		if e.mask == 0 {
			return
		}
		if e.key == line {
			if e.mask &^= bit; e.mask == 0 {
				t.del(i)
			}
			return
		}
	}
}

// del empties slot i and backward-shifts the probe chain so lookups
// never cross a false hole (standard linear-probing deletion).
func (t *sharerTable) del(i int) {
	mask := uint64(len(t.entries) - 1)
	t.used--
	j := i
	for {
		j = int((uint64(j) + 1) & mask)
		if t.entries[j].mask == 0 {
			break
		}
		k := t.home(t.entries[j].key)
		// Slot j's entry may move into the hole at i only if i lies in
		// its probe path [k, j) (cyclically).
		if j > i {
			if k <= i || k > j {
				t.entries[i] = t.entries[j]
				i = j
			}
		} else if k <= i && k > j {
			t.entries[i] = t.entries[j]
			i = j
		}
	}
	t.entries[i] = sharerEntry{}
}

// grow doubles the table and rehashes every live entry.
func (t *sharerTable) grow() {
	old := t.entries
	t.init(2 * len(old))
	mask := uint64(len(t.entries) - 1)
	for _, e := range old {
		if e.mask == 0 {
			continue
		}
		j := t.home(e.key)
		for t.entries[j].mask != 0 {
			j = int((uint64(j) + 1) & mask)
		}
		t.entries[j] = e
		t.used++
	}
}

// invalidateOthers gives core exclusive ownership of the line for a
// store: one probe makes core the line's only holder, then every other
// core's copy is removed. It returns how many copies were dropped and
// how many were dirty (needing writeback).
func (s *simulator) invalidateOthers(line uint64, core int) (dropped, dirtyWb int) {
	bit := uint64(1) << uint(core)
	mask := s.dir.sharers.swap(line, bit) &^ bit
	for mask != 0 {
		c := bits.TrailingZeros64(mask)
		mask &= mask - 1
		cs := s.cores[c]
		anyDirty := false
		if present, dirty := cs.l1d.Invalidate(line); present {
			dropped++
			anyDirty = anyDirty || dirty
		}
		if present, dirty := cs.l2.Invalidate(line); present {
			dropped++
			anyDirty = anyDirty || dirty
		}
		if anyDirty {
			dirtyWb++
		}
	}
	d := &s.dir.stats
	d.Invalidations += uint64(dropped)
	d.RemoteWritebacks += uint64(dirtyWb)
	return dropped, dirtyWb
}
