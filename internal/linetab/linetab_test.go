package linetab

import (
	"math"
	"testing"
)

// homedAt returns n distinct keys whose preferred slot is home in a
// table of the given size, so their probe chain starts there.
func homedAt(t *testing.T, size, home, n int) []uint64 {
	t.Helper()
	var tab Table
	tab.reset(size)
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if tab.home(k) == home {
			keys = append(keys, k)
		}
		if k > 1<<24 {
			t.Fatalf("found only %d keys homed at slot %d of %d", len(keys), home, size)
		}
	}
	return keys
}

// TestUnitOps pins each operation's contract on a table small enough
// that the probe chain wraps from the last slot to the first: FetchOr
// and Swap return the value from before, ClearBits deletes an emptied
// key, Add returns the new value, and Delete backward-shifts a wrapped
// chain so the keys behind the hole stay reachable.
func TestUnitOps(t *testing.T) {
	var tab Table
	if tab.Get(7) != 0 || tab.Delete(7) != 0 || tab.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	tab.ClearBits(7, 1) // no-op on an empty table
	if old := tab.FetchOr(7, 1<<0); old != 0 {
		t.Errorf("first FetchOr returned %b, want 0", old)
	}
	if old := tab.FetchOr(7, 1<<2); old != 1<<0 {
		t.Errorf("second FetchOr returned %b, want %b", old, 1<<0)
	}
	tab.ClearBits(7, 1<<2)
	if got := tab.Get(7); got != 1<<0 {
		t.Errorf("after clearing bit 2, value = %b, want %b", got, 1<<0)
	}
	tab.FetchOr(7, 1<<3)
	if old := tab.Swap(7, 1<<1); old != 1<<0|1<<3 {
		t.Errorf("Swap returned %b, want %b", old, 1<<0|1<<3)
	}
	if got := tab.Get(7); got != 1<<1 {
		t.Errorf("after Swap, value = %b, want %b", got, 1<<1)
	}
	tab.ClearBits(7, 1<<1)
	if tab.Len() != 0 || tab.Get(7) != 0 {
		t.Error("emptied entry not reclaimed")
	}

	// Four keys homed at the last of 16 slots occupy slots 15, 0, 1, 2.
	tab.Reset(8)
	if len(tab.entries) != 16 {
		t.Fatalf("Reset(8) views %d slots, want 16", len(tab.entries))
	}
	keys := homedAt(t, 16, 15, 4)
	for i, k := range keys {
		if got := tab.Add(k, uint64(i+1)); got != uint64(i+1) {
			t.Errorf("Add(%d) into an absent key returned %d, want %d", k, got, i+1)
		}
	}
	if got := tab.Add(keys[3], 10); got != 14 {
		t.Errorf("Add to a present key returned %d, want 14", got)
	}
	if tab.entries[0].key != keys[1] {
		t.Fatalf("slot 0 holds %d, want the chain's wrapped second key %d", tab.entries[0].key, keys[1])
	}
	if got := tab.Delete(keys[0]); got != 1 {
		t.Errorf("Delete returned %d, want 1", got)
	}
	if got := tab.Delete(keys[0]); got != 0 {
		t.Errorf("second Delete returned %d, want 0", got)
	}
	for i, k := range keys[1:] {
		want := uint64(i + 2)
		if i == 2 {
			want = 14
		}
		if got := tab.Get(k); got != want {
			t.Errorf("after deleting the chain's head, Get(%d) = %d, want %d", k, got, want)
		}
	}
	if tab.entries[15].key != keys[1] || tab.entries[2].val != 0 {
		t.Errorf("backward shift did not move the wrapped chain up by one slot")
	}
	if tab.Len() != 3 {
		t.Errorf("Len = %d, want 3", tab.Len())
	}
}

// TestResetAndRecycleViews: Reset views exactly what n entries need,
// Recycle views the storage an earlier run grew, capped by its limit,
// and both reuse storage instead of allocating.
func TestResetAndRecycleViews(t *testing.T) {
	var tab Table
	tab.Reset(12) // 12 entries need 32 slots: 16 would grow at 12
	if len(tab.entries) != 32 {
		t.Fatalf("Reset(12) views %d slots, want 32", len(tab.entries))
	}
	for k := uint64(1); k <= 12; k++ {
		tab.Add(k, 1)
	}
	if len(tab.entries) != 32 {
		t.Fatalf("12 entries grew a table Reset for 12 to %d slots", len(tab.entries))
	}
	tab.Recycle(math.MaxInt64)
	if got, want := len(tab.entries), slotsFor(recycleFloor); got != want {
		t.Fatalf("Recycle of a small table views %d slots, want the floor's %d", got, want)
	}
	for k := uint64(1); k <= 3*recycleFloor; k++ {
		tab.Add(k, k)
	}
	grown := len(tab.entries)
	tab.Recycle(math.MaxInt64)
	if len(tab.entries) != grown || tab.Len() != 0 {
		t.Fatalf("Recycle views %d slots holding %d keys, want the grown %d, empty", len(tab.entries), tab.Len(), grown)
	}
	tab.Recycle(100)
	if len(tab.entries) != slotsFor(100) {
		t.Fatalf("Recycle(100) views %d slots, want %d", len(tab.entries), slotsFor(100))
	}
	if cap(tab.entries) != grown {
		t.Errorf("storage shrank from %d to %d slots", grown, cap(tab.entries))
	}
	if allocs := testing.AllocsPerRun(10, func() { tab.Recycle(math.MaxInt64) }); allocs != 0 {
		t.Errorf("Recycle allocates %v times per call", allocs)
	}
}

// TestResetViewsOnlyItsSlots: a small view of storage a large run left
// full clears and probes only its own slots. The large run's entries
// past the view survive untouched, and the small run sees none of them.
func TestResetViewsOnlyItsSlots(t *testing.T) {
	var tab Table
	tab.Reset(3000)
	for k := uint64(1); k <= 3000; k++ {
		tab.Add(k, k)
	}
	large := tab.entries
	tab.Reset(100)
	view := tab.entries
	if len(view) >= len(large) || &view[0] != &large[0] {
		t.Fatalf("Reset(100) views %d of %d slots, want a prefix of the same storage", len(view), len(large))
	}
	stale := 0
	for _, e := range large[len(view):] {
		if e.val != 0 {
			stale++
		}
	}
	if stale == 0 {
		t.Error("no large-run entry survives past the small view: Reset cleared the whole storage")
	}
	for k := uint64(1); k <= 3000; k++ {
		if v := tab.Get(k); v != 0 {
			t.Fatalf("the small view answers Get(%d) = %d from the large run", k, v)
		}
	}
}

// TestTableMatchesMap cross-checks the table against a plain map under a
// long random op sequence: FetchOr, Swap, Add, ClearBits and Delete
// (including on absent keys, a no-op), and lookups. Keys are drawn from
// a small range so probe chains collide, grow triggers, and the
// backward-shift deletion gets exercised across wrapped chains.
func TestTableMatchesMap(t *testing.T) {
	var tab Table
	tab.reset(8) // tiny, so growth and collisions happen immediately
	ref := map[uint64]uint64{}
	rng := uint64(0x2545F4914F6CDD1D)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for op := 0; op < 200000; op++ {
		key := next(512)
		bit := uint64(1) << next(64)
		switch next(6) {
		case 0:
			if got, want := tab.FetchOr(key, bit), ref[key]; got != want {
				t.Fatalf("op %d: FetchOr(%d) returned %b, want %b", op, key, got, want)
			}
			ref[key] |= bit
		case 1:
			tab.ClearBits(key, bit)
			if m := ref[key] &^ bit; m == 0 {
				delete(ref, key)
			} else {
				ref[key] = m
			}
		case 2:
			if got, want := tab.Get(key), ref[key]; got != want {
				t.Fatalf("op %d: Get(%d) = %b, want %b", op, key, got, want)
			}
		case 3:
			if got, want := tab.Swap(key, bit), ref[key]; got != want {
				t.Fatalf("op %d: Swap(%d) returned %b, want %b", op, key, got, want)
			}
			ref[key] = bit
		case 4:
			d := next(5) + 1
			ref[key] += d
			if got := tab.Add(key, d); got != ref[key] {
				t.Fatalf("op %d: Add(%d, %d) returned %d, want %d", op, key, d, got, ref[key])
			}
		case 5:
			if got, want := tab.Delete(key), ref[key]; got != want {
				t.Fatalf("op %d: Delete(%d) returned %d, want %d", op, key, got, want)
			}
			delete(ref, key)
		}
	}
	checkAgainst(t, &tab, ref)
}

// checkAgainst checks that the table holds exactly ref's entries, both
// by lookup and by Range.
func checkAgainst(t *testing.T, tab *Table, ref map[uint64]uint64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("table holds %d keys, map %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got := tab.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, want %d", k, got, want)
		}
	}
	seen := 0
	tab.Range(func(k, v uint64) {
		seen++
		if ref[k] != v {
			t.Fatalf("Range yields %d=%d, map holds %d", k, v, ref[k])
		}
	})
	if seen != len(ref) {
		t.Fatalf("Range yields %d keys, map holds %d", seen, len(ref))
	}
}

// FuzzLineTable runs an arbitrary op sequence against a table and a Go
// map and requires them to agree after every op. Each op is three
// bytes: the operation, the key and the operand. Keys come from a
// 256-value range spread over the whole uint64 space by a multiply, so
// the 16-slot starting table collides, wraps and grows. The seed corpus
// under testdata/fuzz holds a wrapped-chain delete, a grow-then-drain
// sequence and a mixed bit-mask workload.
func FuzzLineTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table
		ref := map[uint64]uint64{}
		for len(ops) >= 3 {
			op, key, arg := ops[0]%6, uint64(ops[1])*0x9E3779B97F4A7C15>>8, uint64(ops[2])
			ops = ops[3:]
			bit := uint64(1) << (arg % 64)
			switch op {
			case 0:
				if got := tab.Add(key, arg+1); got != ref[key]+arg+1 {
					t.Fatalf("Add(%#x, %d) returned %d, want %d", key, arg+1, got, ref[key]+arg+1)
				}
				ref[key] += arg + 1
			case 1:
				if got := tab.Delete(key); got != ref[key] {
					t.Fatalf("Delete(%#x) returned %d, want %d", key, got, ref[key])
				}
				delete(ref, key)
			case 2:
				if got := tab.FetchOr(key, bit); got != ref[key] {
					t.Fatalf("FetchOr(%#x) returned %d, want %d", key, got, ref[key])
				}
				ref[key] |= bit
			case 3:
				if got := tab.Swap(key, bit); got != ref[key] {
					t.Fatalf("Swap(%#x) returned %d, want %d", key, got, ref[key])
				}
				ref[key] = bit
			case 4:
				tab.ClearBits(key, bit)
				if v := ref[key] &^ bit; v == 0 {
					delete(ref, key)
				} else {
					ref[key] = v
				}
			case 5:
				if got := tab.Get(key); got != ref[key] {
					t.Fatalf("Get(%#x) = %d, want %d", key, got, ref[key])
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("table holds %d keys, map %d", tab.Len(), len(ref))
			}
		}
		checkAgainst(t, &tab, ref)
	})
}
