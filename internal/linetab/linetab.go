// Package linetab is the simulator's open-addressed hash table: a
// uint64→uint64 map keyed by line or byte address, for the structures
// consulted on every access. The coherence directory keeps sharer masks
// in it; PRISM's profiler, the LLC wear tracker, the dead-block bypass
// predictor and the hybrid LLC's write heat keep counts or flags.
//
// Address keys need no generic hashing (one multiply spreads them), and
// every user stores only nonzero values, which lets a zero value mark an
// empty slot: a value that drops to zero deletes its entry. Deletion
// backward-shifts the probe chain, so there are no tombstones and a
// long run of inserts and deletes never degrades the table.
package linetab

// entry is one slot: the key and its value side by side, so a probe
// touches one cache line instead of two parallel arrays (the directory's
// probes are DRAM-bound on large machines).
type entry struct {
	key uint64
	val uint64
}

// Table is an open-addressed, linear-probed uint64→uint64 hash table.
// Invariant: a stored value is never zero, so val==0 marks an empty
// slot. The table doubles at 3/4 full. The zero value is an empty table
// ready to use; Reset and Recycle size it ahead of a run and reuse its
// storage across runs.
type Table struct {
	entries []entry
	shift   uint // 64 - log2(len(entries)), for fibonacci hashing
	used    int
}

// minSlots is the smallest table.
const minSlots = 16

// recycleFloor is the fewest entries Recycle sizes a table for.
const recycleFloor = 4096

// slotsFor is the smallest power-of-two slot count, at least minSlots,
// that holds n entries below the grow threshold.
func slotsFor(n int) int {
	size := minSlots
	for 3*size <= 4*n {
		size <<= 1
	}
	return size
}

// Reset empties the table as a view of its storage just large enough to
// hold n entries without growing, allocating only when the storage is
// too small. Only the view is cleared and probed, so a small run after
// a large one never pays for the storage the large one left behind.
func (t *Table) Reset(n int) {
	t.reset(slotsFor(n))
}

// Recycle empties the table for a run that stores at most limit
// distinct keys but usually far fewer. It views as much of the table's
// storage as limit could use, and at least enough for recycleFloor
// entries, so storage an earlier run grew is reused rather than
// regrown, while a fresh table starts small and grows only as far as
// the run needs.
func (t *Table) Recycle(limit int64) {
	t.Reset(int(min(int64(max(t.holds(), recycleFloor)), max(limit, 0))))
}

// holds is how many entries the storage holds below the grow
// threshold.
func (t *Table) holds() int {
	return (3*cap(t.entries) - 1) / 4
}

// reset empties the table as a size-slot view (a power of two) of its
// current storage, allocating only when the storage is too small.
func (t *Table) reset(size int) {
	if cap(t.entries) >= size {
		t.entries = t.entries[:size]
		clear(t.entries)
	} else {
		t.entries = make([]entry, size)
	}
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.used = 0
}

// Len is the number of stored keys.
func (t *Table) Len() int { return t.used }

// Slots is the size of the table's current view of its storage.
func (t *Table) Slots() int { return len(t.entries) }

// Cap is the size of the table's storage, in slots: what a later Reset
// or Recycle can view without allocating.
func (t *Table) Cap() int { return cap(t.entries) }

// home is the preferred slot for a key (fibonacci hashing).
func (t *Table) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// Get returns the key's value, or 0 when the key is absent.
func (t *Table) Get(key uint64) uint64 {
	if t.used == 0 {
		return 0
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(key); ; i = int((uint64(i) + 1) & mask) {
		e := t.entries[i]
		if e.val == 0 {
			return 0
		}
		if e.key == key {
			return e.val
		}
	}
}

// Add adds delta (nonzero) to the key's value, inserting the key at
// delta if absent, and returns the new value.
func (t *Table) Add(key, delta uint64) uint64 {
	if len(t.entries) == 0 {
		t.reset(minSlots)
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(key); ; i = int((uint64(i) + 1) & mask) {
		e := &t.entries[i]
		if e.val == 0 {
			e.key = key
			e.val = delta
			if t.used++; 4*t.used >= 3*len(t.entries) {
				t.grow()
			}
			return delta
		}
		if e.key == key {
			e.val += delta
			return e.val
		}
	}
}

// FetchOr ORs bits (nonzero) into the key's value, inserting the key if
// absent, and returns the value from before.
func (t *Table) FetchOr(key, bits uint64) uint64 {
	return t.put(key, bits, false)
}

// Swap replaces the key's value with val (nonzero), inserting the key
// if absent, and returns the value from before.
func (t *Table) Swap(key, val uint64) uint64 {
	return t.put(key, val, true)
}

// put is FetchOr (replace false) and Swap (replace true) in one probe.
func (t *Table) put(key, val uint64, replace bool) uint64 {
	if len(t.entries) == 0 {
		t.reset(minSlots)
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(key); ; i = int((uint64(i) + 1) & mask) {
		e := &t.entries[i]
		if e.val == 0 {
			e.key = key
			e.val = val
			if t.used++; 4*t.used >= 3*len(t.entries) {
				t.grow()
			}
			return 0
		}
		if e.key == key {
			old := e.val
			if replace {
				e.val = val
			} else {
				e.val |= val
			}
			return old
		}
	}
}

// ClearBits clears bits in the key's value, deleting the key when the
// value empties. An absent key is a no-op.
func (t *Table) ClearBits(key, bits uint64) {
	if t.used == 0 {
		return
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(key); ; i = int((uint64(i) + 1) & mask) {
		e := &t.entries[i]
		if e.val == 0 {
			return
		}
		if e.key == key {
			if e.val &^= bits; e.val == 0 {
				t.del(i)
			}
			return
		}
	}
}

// Delete removes the key and returns its value (0 when absent).
func (t *Table) Delete(key uint64) uint64 {
	if t.used == 0 {
		return 0
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(key); ; i = int((uint64(i) + 1) & mask) {
		e := t.entries[i]
		if e.val == 0 {
			return 0
		}
		if e.key == key {
			t.del(i)
			return e.val
		}
	}
}

// Range calls f for every stored key and its value, in slot order.
// f must not modify the table.
func (t *Table) Range(f func(key, val uint64)) {
	for _, e := range t.entries {
		if e.val != 0 {
			f(e.key, e.val)
		}
	}
}

// del empties slot i and backward-shifts the probe chain so lookups
// never cross a false hole (standard linear-probing deletion).
func (t *Table) del(i int) {
	mask := uint64(len(t.entries) - 1)
	t.used--
	j := i
	for {
		j = int((uint64(j) + 1) & mask)
		if t.entries[j].val == 0 {
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
	t.entries[i] = entry{}
}

// grow doubles the table and rehashes every live entry.
func (t *Table) grow() {
	old := t.entries
	t.entries = nil
	t.reset(2 * len(old))
	mask := uint64(len(t.entries) - 1)
	for _, e := range old {
		if e.val == 0 {
			continue
		}
		j := t.home(e.key)
		for t.entries[j].val != 0 {
			j = int((uint64(j) + 1) & mask)
		}
		t.entries[j] = e
		t.used++
	}
}
