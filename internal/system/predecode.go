package system

// Batched hot-loop pre-decode. The per-access hierarchy walk used to
// recompute the same geometry at every level — shift the address into a
// line, mask it into a set, multiply into a tag-store base — for every
// access, interleaved with the pointer-chasing cache probes. Instead the
// streaming producer decodes each trace chunk as it scatters it per
// thread, precomputing the line address, the per-level set bases, and
// the access kind into SoA lane arrays; the simulation loop then
// consumes the lanes and hands the bases to cache.AccessAt, keeping the
// shift/mask work out of the dispatch path. The lanes carry exactly the
// values the eager path computed, so results are byte-identical (pinned
// by testdata/golden).

import (
	"nvmllc/internal/cache"
	"nvmllc/internal/trace"
)

// laneBuf holds the pre-decoded SoA lanes for a run of accesses: the
// line address, the set base per cache level (the L1 lane is resolved by
// kind — instruction fetches decode against the L1I, everything else
// against the L1D), and the access kind.
type laneBuf struct {
	line []uint64
	l1   []int32
	l2   []int32
	llc  []int32
	kind []trace.Kind
}

// ensure grows the lanes to hold n accesses, reusing prior capacity.
func (b *laneBuf) ensure(n int) {
	if cap(b.line) < n {
		b.line = make([]uint64, n)
		b.l1 = make([]int32, n)
		b.l2 = make([]int32, n)
		b.llc = make([]int32, n)
		b.kind = make([]trace.Kind, n)
	}
	b.line = b.line[:n]
	b.l1 = b.l1[:n]
	b.l2 = b.l2[:n]
	b.llc = b.llc[:n]
	b.kind = b.kind[:n]
}

// decoder is an immutable copy of the machine's set-index geometry. The
// streaming producer goroutine decodes with it while the consumer drives
// the caches, so it must not alias any mutable simulator state — it
// holds only the mask/ways values, which never change after
// construction. Every core's private levels share one geometry, so one
// decoder serves all cores.
type decoder struct {
	blockBits uint
	l1iMask   uint64
	l1dMask   uint64
	l2Mask    uint64
	llcMask   uint64
	l1iWays   int32
	l1dWays   int32
	l2Ways    int32
	llcWays   int32
}

func newDecoder(s *simulator) decoder {
	geom := func(c *cache.Cache) (uint64, int32) {
		mask, ways := c.Geometry()
		return mask, int32(ways)
	}
	d := decoder{blockBits: s.blockBits}
	c0 := s.cores[0]
	d.l1iMask, d.l1iWays = geom(c0.l1i)
	d.l1dMask, d.l1dWays = geom(c0.l1d)
	d.l2Mask, d.l2Ways = geom(c0.l2)
	if s.llc != nil {
		// Hybrid mode has no monolithic LLC; its lane stays zero and the
		// hybrid walk never reads it.
		d.llcMask, d.llcWays = geom(s.llc)
	}
	return d
}

// put decodes a single access into lane slot j (the streaming producer's
// scatter path, where per-thread destinations interleave).
func (d *decoder) put(b *laneBuf, j int, a trace.Access) {
	ln := a.Addr >> d.blockBits
	b.line[j] = ln
	b.kind[j] = a.Kind
	b1 := int32(ln&d.l1dMask) * d.l1dWays
	if a.Kind == trace.Ifetch {
		b1 = int32(ln&d.l1iMask) * d.l1iWays
	}
	b.l1[j] = b1
	b.l2[j] = int32(ln&d.l2Mask) * d.l2Ways
	b.llc[j] = int32(ln&d.llcMask) * d.llcWays
}

// setLanes points a core's consumption views at a lane window.
func (cs *coreState) setLanes(b *laneBuf, off, n int) {
	cs.line = b.line[off : off+n]
	cs.l1b = b.l1[off : off+n]
	cs.l2b = b.l2[off : off+n]
	cs.llcb = b.llc[off : off+n]
	cs.kind = b.kind[off : off+n]
	cs.pos = 0
}

// clearLanes empties a core's views.
func (cs *coreState) clearLanes() {
	cs.line = nil
	cs.l1b = nil
	cs.l2b = nil
	cs.llcb = nil
	cs.kind = nil
	cs.pos = 0
}
