package cache

// Arena recycles tag-store storage across cache constructions. A
// simulator builds dozens to hundreds of caches per run (three private
// levels × up to 64 cores plus the LLC); carving their tags/meta/stamps
// arrays out of one reusable arena makes repeated runs — the engine's
// steady state and the hot-loop benchmarks — allocation-free on cache
// storage instead of several megabytes per run at 64 cores.
//
// Usage: Reset(need) once per construction cycle, with need the sum of
// the cycle's caches (Need.Add), then NewIn for every cache of that
// cycle. The backing arrays only grow, and grow to exactly the largest
// cycle seen, so a long-lived arena holds no slack beyond its biggest
// run. Windows handed out before a Reset must no longer be in use when
// the next cycle begins — the caller (internal/system's Scratch)
// guarantees a Scratch is owned by one run at a time. The zero value is
// ready to use. An Arena must not be shared by concurrent simulations.
type Arena struct {
	tags   []uint64
	meta   []uint8
	stamps []uint64

	tagOff, metaOff, stampOff int
}

// Need is the storage one construction cycle carves, in elements per
// backing array.
type Need struct {
	Tags, Meta, Stamps int
}

// Add accumulates count caches of configuration cfg. An invalid cfg
// adds nothing: NewIn rejects it before carving.
func (n *Need) Add(cfg Config, count int) {
	if cfg.Validate() != nil {
		return
	}
	sets := cfg.numSets()
	lines := sets * cfg.Ways
	n.Tags += count * lines
	n.Meta += count * (lines + sets) // meta plus the per-set occupancy
	if cfg.Policy == LRU {
		n.Stamps += count * lines
	}
}

// Reset starts a new construction cycle: previously carved windows are
// abandoned, and each backing array is reallocated at exactly need's
// size when it is too small for the cycle, kept otherwise.
func (a *Arena) Reset(need Need) {
	a.tagOff, a.metaOff, a.stampOff = 0, 0, 0
	a.tags = fit(a.tags, need.Tags)
	a.meta = fit(a.meta, need.Meta)
	a.stamps = fit(a.stamps, need.Stamps)
}

// fit returns buf when it holds n elements, else a fresh n-element array
// (the old one goes to the garbage collector).
func fit[T uint64 | uint8](buf []T, n int) []T {
	if len(buf) >= n {
		return buf
	}
	return make([]T, n)
}

// take carves an n-element window out of buf. A cycle that carves more
// than its Reset declared gets a standalone window for the overflow
// rather than growing the arena, so the backing stays at the declared
// size.
func take[T uint64 | uint8](buf []T, off *int, n int) []T {
	if *off+n > len(buf) {
		return make([]T, n)
	}
	s := buf[*off : *off+n : *off+n]
	*off += n
	return s
}

// takeTags returns an n-line tag window with every way empty (the
// invalidTag sentinel findWay's residency scan relies on).
func (a *Arena) takeTags(n int) []uint64 {
	var s []uint64
	if a == nil {
		s = make([]uint64, n)
	} else {
		s = take(a.tags, &a.tagOff, n)
	}
	for i := range s {
		s[i] = invalidTag
	}
	return s
}

// takeMeta returns an n-line meta window, zeroed (all ways invalid).
func (a *Arena) takeMeta(n int) []uint8 {
	if a == nil {
		return make([]uint8, n)
	}
	s := take(a.meta, &a.metaOff, n)
	clear(s)
	return s
}

// takeStamps returns an n-line LRU-stamp window, zeroed. Correctness does
// not need the clear (stamps are (re)assigned from the owning cache's
// clock as ways fill, and only valid ways' stamps are ever compared), but
// it stays: the sequential sweep brings the window into the CPU caches
// ahead of the run, and without it a 2 MB LLC's runs measured 14–23 %
// slower, each stamp line's first touch missing inside the hot loop.
func (a *Arena) takeStamps(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	s := take(a.stamps, &a.stampOff, n)
	clear(s)
	return s
}

// takeOcc returns an n-set occupancy window, zeroed (all sets empty). It
// shares the meta backing array — both are per-construction uint8 state.
func (a *Arena) takeOcc(n int) []uint8 {
	return a.takeMeta(n)
}
