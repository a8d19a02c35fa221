package cache

// Property test for the packed struct-of-arrays tag store: long random
// operation streams are replayed through both the SoA Cache and the
// retained slice-of-struct oracle (reference_test.go) — including way
// condemnations, so fills and victim selection at reduced associativity
// and dead-set refusals are covered — and every return value, the
// running statistics and the final contents must match exactly. The
// system- and engine-level behavior is pinned by the digests under
// testdata/golden.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// dumpLine is one valid line in canonical order for contents comparison.
type dumpLine struct {
	tag   uint64
	dirty bool
	rrpv  uint8
}

// dumpSoA lists the valid lines of each set: recency order under LRU
// (most recent stamp first), physical way order otherwise — exactly the
// order the reference layout stores them in.
func dumpSoA(c *Cache) [][]dumpLine {
	out := make([][]dumpLine, c.sets)
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		var set []dumpLine
		if c.policy == LRU {
			type stamped struct {
				stamp uint64
				line  dumpLine
			}
			var lines []stamped
			for w := 0; w < c.ways; w++ {
				if c.meta[base+w]&metaValid != 0 {
					lines = append(lines, stamped{
						stamp: c.stamps[base+w],
						line:  dumpLine{tag: c.tags[base+w], dirty: c.meta[base+w]&metaDirty != 0},
					})
				}
			}
			sort.Slice(lines, func(i, j int) bool { return lines[i].stamp > lines[j].stamp })
			for _, l := range lines {
				set = append(set, l.line)
			}
		} else {
			for w := 0; w < c.ways; w++ {
				if m := c.meta[base+w]; m&metaValid != 0 {
					set = append(set, dumpLine{
						tag:   c.tags[base+w],
						dirty: m&metaDirty != 0,
						rrpv:  (m & metaRRPVMask) >> metaRRPVShift,
					})
				}
			}
		}
		out[s] = set
	}
	return out
}

// dumpRef lists the reference layout's valid lines in storage order
// (MRU-first under LRU by construction, physical otherwise).
func dumpRef(c *refStore) [][]dumpLine {
	sets := int(c.setMask) + 1
	out := make([][]dumpLine, sets)
	for s := 0; s < sets; s++ {
		var set []dumpLine
		for _, l := range c.lines[s*c.ways : (s+1)*c.ways] {
			if !l.valid {
				continue
			}
			d := dumpLine{tag: l.tag, dirty: l.dirty}
			if c.policy != LRU {
				d.rrpv = l.rrpv
			}
			set = append(set, d)
		}
		out[s] = set
	}
	return out
}

func TestSoAMatchesReferenceLayout(t *testing.T) {
	geometries := []struct {
		sets, ways int
	}{
		{4, 2},   // tiny, high conflict
		{16, 8},  // L1-shaped
		{64, 16}, // LLC-shaped
		{8, 3},   // non-power-of-two ways
	}
	const opsPerConfig = 20_000 // × 4 geometries × 3 policies = 240k ops
	totalOps, condemned, deadSets := 0, 0, 0
	// Every cache under test is carved from an arena a previous cycle
	// soiled: its tags, meta and LRU stamps hold that cycle's lines and
	// clock values until the new window is carved over them.
	var arena Arena
	for _, p := range []Policy{LRU, SRRIP, Random} {
		for gi, g := range geometries {
			cfg := Config{
				Name:          fmt.Sprintf("prop-%s-%d", p, gi),
				CapacityBytes: int64(g.sets) * int64(g.ways) * 64,
				BlockBytes:    64,
				Ways:          g.ways,
				Policy:        p,
			}
			var need Need
			need.Add(cfg, 1)
			arena.Reset(need)
			soil, err := NewIn(&arena, cfg)
			if err != nil {
				t.Fatal(err)
			}
			soilRng := rand.New(rand.NewSource(int64(gi) + 5))
			for op := 0; op < 8*g.sets*g.ways; op++ {
				soil.Access(soilRng.Uint64()%uint64(4*g.sets*g.ways), soilRng.Intn(2) == 0)
			}
			arena.Reset(need)
			soa, err := NewIn(&arena, cfg)
			if err != nil {
				t.Fatal(err)
			}
			aos := newRefStore(g.sets, g.ways, p, cfg.victimSeed(g.sets))
			rng := rand.New(rand.NewSource(int64(7*gi) + int64(p)*1331 + 99))
			// Address pool ~2× capacity so sets fill, conflict and churn.
			addrSpace := uint64(g.sets*g.ways) * 2
			// Condemn about three quarters of all ways over the run, so
			// sets spend most of it at reduced associativity and the
			// small geometries lose whole sets.
			condemnEvery := opsPerConfig * 4 / (3 * g.sets * g.ways)
			for op := 0; op < opsPerConfig; op++ {
				addr := rng.Uint64() % addrSpace
				isWrite := rng.Intn(2) == 0
				var got, want any
				if rng.Intn(condemnEvery) == 0 {
					// A condemned write, as the simulator applies it: the
					// write lands, its line is invalidated and its way is
					// disabled, so a set never holds more lines than it
					// has enabled ways.
					h1, e1 := soa.Access(addr, true)
					h2, e2 := aos.Access(addr, true)
					p1, d1 := soa.Invalidate(addr)
					p2, d2 := aos.Invalidate(addr)
					set := soa.SetOf(addr)
					soa.DisableWay(set)
					aos.DisableWay(set)
					got = fmt.Sprint(h1, e1, p1, d1, soa.DisabledWays(set))
					want = fmt.Sprint(h2, e2, p2, d2, aos.disabledWays(set))
					if got != want {
						t.Fatalf("%s geometry %d op %d: condemnation: SoA %v, reference %v", p, gi, op, got, want)
					}
				}
				switch rng.Intn(8) {
				case 0, 1, 2: // Access dominates, as in the simulator
					h1, e1 := soa.Access(addr, isWrite)
					h2, e2 := aos.Access(addr, isWrite)
					got, want = fmt.Sprint(h1, e1), fmt.Sprint(h2, e2)
				case 3:
					got, want = soa.Touch(addr, isWrite), aos.Touch(addr, isWrite)
				case 4:
					got, want = soa.Install(addr, isWrite), aos.Install(addr, isWrite)
				case 5:
					p1, e1 := soa.WritebackTo(addr)
					p2, e2 := aos.WritebackTo(addr)
					got, want = fmt.Sprint(p1, e1), fmt.Sprint(p2, e2)
				case 6:
					p1, d1 := soa.Clean(addr)
					p2, d2 := aos.Clean(addr)
					got, want = fmt.Sprint(p1, d1), fmt.Sprint(p2, d2)
				case 7:
					p1, d1 := soa.Invalidate(addr)
					p2, d2 := aos.Invalidate(addr)
					got, want = fmt.Sprint(p1, d1), fmt.Sprint(p2, d2)
				}
				if got != want {
					t.Fatalf("%s geometry %d op %d: SoA returned %v, reference %v", p, gi, op, got, want)
				}
				if rng.Intn(512) == 0 {
					if p1, p2 := soa.Probe(addr), aos.Probe(addr); p1 != p2 {
						t.Fatalf("%s geometry %d op %d: Probe %v vs %v", p, gi, op, p1, p2)
					}
				}
				totalOps++
			}
			if s1, s2 := soa.Stats(), aos.stats; s1 != s2 {
				t.Errorf("%s geometry %d: stats diverged: SoA %+v, reference %+v", p, gi, s1, s2)
			}
			if o1, o2 := soa.OccupiedLines(), aos.occupiedLines(); o1 != o2 {
				t.Errorf("%s geometry %d: occupied %d vs %d", p, gi, o1, o2)
			}
			if d1, d2 := soa.DirtyLines(), aos.dirtyLines(); d1 != d2 {
				t.Errorf("%s geometry %d: dirty %d vs %d", p, gi, d1, d2)
			}
			dead := 0
			for set := 0; set < g.sets; set++ {
				w1, w2 := soa.DisabledWays(set), aos.disabledWays(set)
				if w1 != w2 {
					t.Errorf("%s geometry %d set %d: disabled ways %d vs %d", p, gi, set, w1, w2)
				}
				condemned += w1
				if soa.EnabledWays(set) == 0 {
					dead++
				}
			}
			deadSets += dead
			c1, c2 := dumpSoA(soa), dumpRef(aos)
			for s := range c1 {
				if fmt.Sprint(c1[s]) != fmt.Sprint(c2[s]) {
					t.Fatalf("%s geometry %d set %d: contents diverged\nSoA: %v\nref: %v", p, gi, s, c1[s], c2[s])
				}
			}
		}
	}
	if totalOps < 200_000 {
		t.Fatalf("property test replayed only %d ops, want ≥200000", totalOps)
	}
	// The capped paths must actually have run: ways condemned, and
	// whole sets dead.
	if condemned == 0 || deadSets == 0 {
		t.Fatalf("condemned %d ways and killed %d sets; the capped fill paths went unexercised", condemned, deadSets)
	}
}

// TestVictimSeedDerivation covers the Random-policy seeding fix:
// same-shaped caches at different levels must not replay identical
// victim sequences, while the VictimSeed knob pins the sequence for
// reproducible seed-state comparisons.
func TestVictimSeedDerivation(t *testing.T) {
	evictions := func(cfg Config) []uint64 {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var evs []uint64
		for l := uint64(0); l < 4096; l++ {
			if _, ev := c.Access(l, false); ev.Valid {
				evs = append(evs, ev.LineAddr)
			}
		}
		return evs
	}
	base := Config{CapacityBytes: 8 << 10, BlockBytes: 64, Ways: 4, Policy: Random}

	l2, l2b := base, base
	l2.Name, l2b.Name = "L2", "L2"
	if fmt.Sprint(evictions(l2)) != fmt.Sprint(evictions(l2b)) {
		t.Error("identical configs must produce identical victim sequences")
	}

	llc := base
	llc.Name = "LLC"
	if fmt.Sprint(evictions(l2)) == fmt.Sprint(evictions(llc)) {
		t.Error("same-shaped caches at different levels picked identical victim sequences")
	}

	pinA, pinB := l2, llc
	pinA.VictimSeed, pinB.VictimSeed = 0x9E3779B97F4A7C15, 0x9E3779B97F4A7C15
	if fmt.Sprint(evictions(pinA)) != fmt.Sprint(evictions(pinB)) {
		t.Error("VictimSeed override must pin the victim sequence across level names")
	}

	// The reference oracle seeded from the same config must replay the
	// same Random victim sequence.
	sets := int(llc.CapacityBytes / int64(llc.BlockBytes*llc.Ways))
	ref := newRefStore(sets, llc.Ways, Random, llc.victimSeed(sets))
	var refEvs []uint64
	for l := uint64(0); l < 4096; l++ {
		if _, ev := ref.Access(l, false); ev.Valid {
			refEvs = append(refEvs, ev.LineAddr)
		}
	}
	if fmt.Sprint(evictions(llc)) != fmt.Sprint(refEvs) {
		t.Error("SoA store and reference oracle diverged under Random replacement")
	}
}

// TestConfigValidate exercises Validate directly (New and the hybrid-LLC
// construction path both call it).
func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", CapacityBytes: 512, BlockBytes: 64, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "b", CapacityBytes: 512, BlockBytes: 0, Ways: 2},
		{Name: "b", CapacityBytes: 512, BlockBytes: 48, Ways: 2},
		{Name: "b", CapacityBytes: 512, BlockBytes: 64, Ways: 0},
		{Name: "b", CapacityBytes: 64 * 300, BlockBytes: 64, Ways: 300},
		{Name: "b", CapacityBytes: 0, BlockBytes: 64, Ways: 2},
		{Name: "b", CapacityBytes: 100, BlockBytes: 64, Ways: 2},
		{Name: "b", CapacityBytes: 64 * 2 * 3, BlockBytes: 64, Ways: 2}, // 3 sets
		{Name: "b", CapacityBytes: 512, BlockBytes: 64, Ways: 2, Policy: Policy(99)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
}

// TestArenaRecycling checks that arena-backed construction reuses
// storage across Reset cycles and still behaves like a fresh cache.
func TestArenaRecycling(t *testing.T) {
	var a Arena
	cfg := Config{Name: "ar", CapacityBytes: 4 << 10, BlockBytes: 64, Ways: 4}
	var need Need
	need.Add(cfg, 1)
	build := func() *Cache {
		a.Reset(need)
		c, err := NewIn(&a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := build()
	for l := uint64(0); l < 500; l++ {
		c1.Access(l, l%3 == 0)
	}
	// Second cycle must come up empty despite the dirtied storage.
	c2 := build()
	if got := c2.OccupiedLines(); got != 0 {
		t.Fatalf("recycled cache starts with %d occupied lines", got)
	}
	if hit, _ := c2.Access(1, false); hit {
		t.Fatal("recycled cache hit on first access")
	}
	// And behave identically to a fresh allocation.
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c3 := build()
	for l := uint64(0); l < 2000; l++ {
		h1, e1 := c3.Access(l%97, l%5 == 0)
		h2, e2 := fresh.Access(l%97, l%5 == 0)
		if h1 != h2 || e1 != e2 {
			t.Fatalf("access %d: arena-backed (%v,%v) vs fresh (%v,%v)", l, h1, e1, h2, e2)
		}
	}
	if c3.Stats() != fresh.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", c3.Stats(), fresh.Stats())
	}
}

// TestArenaResetExact: Reset sizes the backing arrays to exactly the
// declared need, a smaller cycle afterwards carves and clears only its
// own windows (the storage past them keeps the large cycle's contents),
// and carving past the declared need hands out a standalone window
// instead of growing the arena.
func TestArenaResetExact(t *testing.T) {
	big := Config{Name: "big", CapacityBytes: 64 << 10, BlockBytes: 64, Ways: 8}
	small := Config{Name: "small", CapacityBytes: 4 << 10, BlockBytes: 64, Ways: 4}
	var bigNeed, smallNeed Need
	bigNeed.Add(big, 2)
	smallNeed.Add(small, 1)

	var a Arena
	a.Reset(bigNeed)
	for i := 0; i < 2; i++ {
		if _, err := NewIn(&a, big); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.tags) != bigNeed.Tags || len(a.meta) != bigNeed.Meta || len(a.stamps) != bigNeed.Stamps {
		t.Fatalf("backing = %d/%d/%d elements, want exactly %+v", len(a.tags), len(a.meta), len(a.stamps), bigNeed)
	}
	if a.tagOff != bigNeed.Tags || a.metaOff != bigNeed.Meta || a.stampOff != bigNeed.Stamps {
		t.Fatalf("carved %d/%d/%d elements, want exactly %+v", a.tagOff, a.metaOff, a.stampOff, bigNeed)
	}
	for i := range a.tags {
		a.tags[i], a.stamps[i] = 7, 7
	}
	for i := range a.meta {
		a.meta[i] = 7
	}
	tags, meta, stamps := &a.tags[0], &a.meta[0], &a.stamps[0]

	a.Reset(smallNeed)
	c, err := NewIn(&a, small)
	if err != nil {
		t.Fatal(err)
	}
	if &a.tags[0] != tags || &a.meta[0] != meta || &a.stamps[0] != stamps {
		t.Fatal("a smaller cycle reallocated the backing arrays")
	}
	untouched := func(name string, n int, at func(int) uint64, from int) {
		for i := from; i < n; i++ {
			if at(i) != 7 {
				t.Fatalf("%s[%d] past the small cycle's windows was cleared", name, i)
			}
		}
	}
	untouched("tags", len(a.tags), func(i int) uint64 { return a.tags[i] }, smallNeed.Tags)
	untouched("stamps", len(a.stamps), func(i int) uint64 { return a.stamps[i] }, smallNeed.Stamps)
	untouched("meta", len(a.meta), func(i int) uint64 { return uint64(a.meta[i]) }, smallNeed.Meta)
	if got := c.OccupiedLines(); got != 0 {
		t.Fatalf("small cache starts with %d occupied lines", got)
	}

	// Overflow: a cycle that carves more than it declared.
	var b Arena
	b.Reset(smallNeed)
	over, err := NewIn(&b, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.tags) != smallNeed.Tags || b.tagOff != 0 {
		t.Errorf("an undeclared window grew the arena (%d elements declared, %d held, offset %d)", smallNeed.Tags, len(b.tags), b.tagOff)
	}
	if hit, _ := over.Access(3, false); hit {
		t.Error("standalone window starts non-empty")
	}
}
