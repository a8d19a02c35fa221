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

import (
	"math/bits"

	"nvmllc/internal/linetab"
)

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
// so it is a linetab.Table rather than a Go map: the sharer mask is
// never zero for a stored entry (noteEvict deletes emptied lines), which
// is the table's empty-slot invariant.
type directory struct {
	sharers linetab.Table
	stats   DirectoryStats
}

// newDirectoryWith builds a directory for a machine whose private
// caches hold at most lines distinct lines, on recycled table storage
// (from a Scratch), viewed at the size lines entries need
// (linetab.Table.Reset). A zero table allocates fresh.
func newDirectoryWith(t linetab.Table, lines int) *directory {
	d := &directory{sharers: t}
	d.sharers.Reset(lines)
	return d
}

// noteEvict clears core's sharer bit (called when a private cache drops
// the line entirely).
func (d *directory) noteEvict(line uint64, core int) {
	d.sharers.ClearBits(line, 1<<uint(core))
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

// invalidateOthers gives core exclusive ownership of the line for a
// store: one probe makes core the line's only holder, then every other
// core's copy is removed. It returns how many copies were dropped and
// how many were dirty (needing writeback).
func (s *simulator) invalidateOthers(line uint64, core int) (dropped, dirtyWb int) {
	bit := uint64(1) << uint(core)
	mask := s.dir.sharers.Swap(line, bit) &^ bit
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
