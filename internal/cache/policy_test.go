package cache

import (
	"math/rand"
	"testing"
)

func newPolicyCache(t *testing.T, p Policy) *Cache {
	t.Helper()
	c, err := New(Config{Name: "pol", CapacityBytes: 4096, BlockBytes: 64, Ways: 4, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || SRRIP.String() != "SRRIP" || Random.String() != "Random" {
		t.Error("policy names wrong")
	}
	if Policy(9).Valid() {
		t.Error("invalid policy accepted")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy name empty")
	}
}

func TestNewRejectsUnknownPolicy(t *testing.T) {
	_, err := New(Config{Name: "x", CapacityBytes: 4096, BlockBytes: 64, Ways: 4, Policy: Policy(42)})
	if err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestReplacementPolicyAccessor(t *testing.T) {
	if newPolicyCache(t, SRRIP).ReplacementPolicy() != SRRIP {
		t.Error("policy accessor wrong")
	}
}

func TestAllPoliciesBasicInvariants(t *testing.T) {
	for _, p := range []Policy{LRU, SRRIP, Random} {
		c := newPolicyCache(t, p)
		rng := rand.New(rand.NewSource(11))
		var accesses uint64
		for i := 0; i < 50000; i++ {
			c.Access(rng.Uint64()%128, rng.Intn(3) == 0)
			accesses++
		}
		s := c.Stats()
		if s.Accesses() != accesses {
			t.Errorf("%v: accesses %d != %d", p, s.Accesses(), accesses)
		}
		if s.Fills != s.Misses {
			t.Errorf("%v: fills %d != misses %d", p, s.Fills, s.Misses)
		}
		if c.OccupiedLines() > c.Sets()*c.Ways() {
			t.Errorf("%v: overfull cache", p)
		}
		// Repeated access to a resident line must always hit.
		c.Access(7, false)
		if hit, _ := c.Access(7, false); !hit {
			t.Errorf("%v: immediate re-access missed", p)
		}
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	c := newPolicyCache(t, SRRIP)
	// Fill one set (lines 0,16,32,48 map to set 0 of 16 sets).
	for _, l := range []uint64{0, 16, 32, 48} {
		c.Access(l, false)
	}
	// Promote line 0 (rrpv -> 0); the others stay at insert rrpv.
	c.Access(0, false)
	// Next fill must evict one of the non-promoted lines, never line 0.
	_, ev := c.Access(64, false)
	if !ev.Valid {
		t.Fatal("no eviction from full set")
	}
	if ev.LineAddr == 0 {
		t.Error("SRRIP evicted the promoted line")
	}
	if !c.Probe(0) {
		t.Error("promoted line gone")
	}
}

func TestSRRIPBeatsLRUOnScanMixes(t *testing.T) {
	// The classic SRRIP result: an active working set mixed with one-shot
	// scan bursts. LRU lets the scan flush the working set; SRRIP keeps
	// re-referenced lines at immediate re-reference and sacrifices the
	// scan lines instead.
	run := func(p Policy) Stats {
		c := newPolicyCache(t, p) // 64 lines, 16 sets × 4 ways
		scanBase := uint64(1 << 20)
		for round := 0; round < 200; round++ {
			// Re-reference a 32-line working set twice...
			for rep := 0; rep < 2; rep++ {
				for l := uint64(0); l < 32; l++ {
					c.Access(l, false)
				}
			}
			// ...then a one-shot 64-line scan burst.
			for l := uint64(0); l < 64; l++ {
				c.Access(scanBase+uint64(round)*64+l, false)
			}
		}
		return c.Stats()
	}
	lru := run(LRU)
	srrip := run(SRRIP)
	if srrip.Hits <= lru.Hits {
		t.Errorf("SRRIP hits %d not above LRU %d on scan mix", srrip.Hits, lru.Hits)
	}
}

func TestRandomPolicyIsDeterministicPerInstance(t *testing.T) {
	run := func() []uint64 {
		c := newPolicyCache(t, Random)
		var evs []uint64
		for l := uint64(0); l < 200; l++ {
			if _, ev := c.Access(l, false); ev.Valid {
				evs = append(evs, ev.LineAddr)
			}
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic eviction count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandomPolicySpreadsEvictions(t *testing.T) {
	c := newPolicyCache(t, Random)
	// Hammer one set with a long conflict stream; all four ways should
	// host victims over time (i.e. evictions touch ≥ 3 distinct prior
	// occupants in a row of 4).
	seen := map[uint64]bool{}
	for i := uint64(0); i < 400; i++ {
		if _, ev := c.Access(i*16, false); ev.Valid {
			seen[ev.LineAddr] = true
		}
	}
	if len(seen) < 4 {
		t.Errorf("random evictions too narrow: %d distinct victims", len(seen))
	}
}

func TestInvalidateUnderNonLRUPolicies(t *testing.T) {
	for _, p := range []Policy{SRRIP, Random} {
		c := newPolicyCache(t, p)
		c.Access(0, true)
		c.Access(16, false)
		present, dirty := c.Invalidate(0)
		if !present || !dirty {
			t.Errorf("%v: Invalidate = %v,%v", p, present, dirty)
		}
		if c.Probe(0) || !c.Probe(16) {
			t.Errorf("%v: residency after invalidate wrong", p)
		}
		// Refill reuses the freed way.
		c.Access(32, false)
		if c.OccupiedLines() != 2 {
			t.Errorf("%v: occupied = %d, want 2", p, c.OccupiedLines())
		}
	}
}

func TestDirtyWritebackUnderAllPolicies(t *testing.T) {
	for _, p := range []Policy{LRU, SRRIP, Random} {
		c := newPolicyCache(t, p)
		// Dirty the whole cache, then scan a disjoint region of equal
		// size: every eviction must be a dirty writeback.
		for l := uint64(0); l < 64; l++ {
			c.Access(l, true)
		}
		c.ResetStats()
		for l := uint64(1000); l < 1064; l++ {
			c.Access(l, false)
		}
		wb := c.Stats().Writebacks
		if p == LRU && wb != 64 {
			t.Errorf("LRU: writebacks = %d, want exactly 64", wb)
		}
		// Non-LRU victims may include clean newcomers, but the bulk of
		// the dirty set must still wash out.
		if wb < 32 {
			t.Errorf("%v: writebacks = %d, want ≥ 32", p, wb)
		}
	}
}

// TestLRUVictimMatchesMinScan: the conditional-move LRU victim picks the
// way a plain minimum-stamp scan picks, over full sets (victimWay) and
// sets with invalid, disabled ways (victimWayCapped), at every width the
// key packing must hold, up to the 255-way limit. Stamps are unique among
// valid ways, as the cache's monotonic clock makes them, and span the
// full 56-bit range; invalid ways carry arbitrary stamps, often smaller.
func TestLRUVictimMatchesMinScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ways := range []int{1, 2, 3, 8, 16, 32, 255} {
		c, err := New(Config{Name: "lru", CapacityBytes: int64(64 * ways * 4), BlockBytes: 64, Ways: ways})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			base := rng.Intn(c.Sets()) * ways
			stamps := c.stamps[base : base+ways]
			meta := c.meta[base : base+ways]
			seen := make(map[uint64]bool, ways)
			for j := range stamps {
				s := rng.Uint64() >> 8
				if trial%2 == 0 {
					s %= uint64(4 * ways) // dense stamps: neighbours differ by little
				}
				for seen[s] {
					s = (s + 1) & (1<<56 - 1)
				}
				seen[s] = true
				stamps[j] = s
				meta[j] = metaValid
			}
			if got, want := c.victimWay(base), minScan(stamps, meta); got != want {
				t.Fatalf("%d ways, trial %d: victimWay = %d, min scan = %d", ways, trial, got, want)
			}
			occ := ways
			for j := range meta {
				if occ > 1 && rng.Intn(3) == 0 {
					meta[j] = 0
					stamps[j] = rng.Uint64() >> uint(8+rng.Intn(56))
					occ--
				}
			}
			if got, want := c.victimWayCapped(base, occ), minScan(stamps, meta); got != want {
				t.Fatalf("%d ways (%d valid), trial %d: victimWayCapped = %d, min scan = %d", ways, occ, trial, got, want)
			}
		}
	}
}

// minScan is the plain LRU victim: the first valid way with the smallest
// stamp.
func minScan(stamps []uint64, meta []uint8) int {
	vi := -1
	for j := range stamps {
		if meta[j]&metaValid != 0 && (vi < 0 || stamps[j] < stamps[vi]) {
			vi = j
		}
	}
	return vi
}
