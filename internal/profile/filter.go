package profile

import (
	"context"
	"fmt"

	"nvmllc/internal/cache"
	"nvmllc/internal/trace"
)

// LevelSpec is one private cache level's geometry.
type LevelSpec struct {
	// CapacityBytes is the level's total data capacity.
	CapacityBytes int64
	// Ways is the associativity.
	Ways int
}

// Hierarchy describes the private L1I/L1D/L2 levels a filtered
// profiling pass strains the raw trace through, replicating the
// simulator's upstream hierarchy functionally (residency and
// writebacks, no timing) so the profiled stream is the one the LLC
// actually sees. sweep builds one from a system.Config.
type Hierarchy struct {
	// BlockBytes is the hierarchy's line size.
	BlockBytes int
	// L1I, L1D and L2 are per-thread private levels (true-LRU,
	// write-back write-allocate, inclusive L2, like the simulator's).
	L1I, L1D, L2 LevelSpec
}

// configs expands the hierarchy into validated cache configurations.
func (h Hierarchy) configs() (l1i, l1d, l2 cache.Config, err error) {
	mk := func(name string, spec LevelSpec) (cache.Config, error) {
		cfg := cache.Config{
			Name:          name,
			CapacityBytes: spec.CapacityBytes,
			BlockBytes:    h.BlockBytes,
			Ways:          spec.Ways,
		}
		return cfg, cfg.Validate()
	}
	if l1i, err = mk("L1I", h.L1I); err != nil {
		return
	}
	if l1d, err = mk("L1D", h.L1D); err != nil {
		return
	}
	l2, err = mk("L2", h.L2)
	return
}

// filterCore is one thread's private cache stack.
type filterCore struct {
	l1i, l1d, l2 *cache.Cache
}

// filterState runs the functional upstream hierarchy over a trace in
// program order, appending the LLC-bound stream (demand fills from L2
// misses plus L2 dirty-eviction writebacks, in the order the simulator
// would issue them) to the scratch's fLines/fFlags lanes.
//
// Approximations vs the full simulator, self-validated by the estimate
// artifact: accesses are processed in trace program order rather than
// the timing scheduler's core interleaving (exact for single-threaded
// traces), and the coherence directory's cross-core downgrades,
// invalidations and flush writebacks are not modeled.
type filterState struct {
	cores []filterCore
	sc    *Scratch
}

// newFilterState builds the per-thread cache stacks out of the
// scratch's arena, sized exactly to them.
func newFilterState(h Hierarchy, threads int, sc *Scratch) (*filterState, error) {
	l1iCfg, l1dCfg, l2Cfg, err := h.configs()
	if err != nil {
		return nil, err
	}
	var need cache.Need
	need.Add(l1iCfg, threads)
	need.Add(l1dCfg, threads)
	need.Add(l2Cfg, threads)
	sc.arena.Reset(need)
	fs := &filterState{cores: make([]filterCore, threads), sc: sc}
	for t := 0; t < threads; t++ {
		c := &fs.cores[t]
		if c.l1i, err = cache.NewIn(&sc.arena, l1iCfg); err != nil {
			return nil, err
		}
		if c.l1d, err = cache.NewIn(&sc.arena, l1dCfg); err != nil {
			return nil, err
		}
		if c.l2, err = cache.NewIn(&sc.arena, l2Cfg); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// emit appends one LLC-bound stack touch.
func (fs *filterState) emit(line uint64, flags uint8) {
	fs.sc.fLines = append(fs.sc.fLines, line)
	fs.sc.fFlags = append(fs.sc.fFlags, flags)
}

// l2Writeback propagates an L1 dirty eviction into the L2; a dirty L2
// victim continues to the LLC as a writeback (mirroring the
// simulator's l2Writeback).
func (fs *filterState) l2Writeback(c *filterCore, line uint64) {
	if present, ev := c.l2.WritebackTo(line); !present && ev.Valid && ev.Dirty {
		fs.emit(ev.LineAddr, 0)
	}
}

// fromL2 services an L1 miss: an L2 hit stops there; an L2 miss first
// settles the L2 victim (inclusion invalidations, dirty victim to the
// LLC) and then issues the demand access to the LLC — the same event
// order as the simulator's fromL2/fromLLC.
func (fs *filterState) fromL2(c *filterCore, line uint64) {
	if hit, ev := c.l2.Access(line, false); hit {
		return
	} else if ev.Valid {
		if present, dirty := c.l1d.Invalidate(ev.LineAddr); present && dirty {
			ev.Dirty = true
		}
		c.l1i.Invalidate(ev.LineAddr)
		if ev.Dirty {
			fs.emit(ev.LineAddr, 0)
		}
	}
	fs.emit(line, flagDemand)
}

// access runs one trace access through its thread's stack.
func (fs *filterState) access(a trace.Access, shift uint) {
	c := &fs.cores[a.Tid]
	line := a.Addr >> shift
	switch a.Kind {
	case trace.Ifetch:
		if hit, ev := c.l1i.Access(line, false); hit {
			return
		} else if ev.Valid && ev.Dirty {
			fs.l2Writeback(c, ev.LineAddr)
		}
	default:
		if hit, ev := c.l1d.Access(line, a.Kind == trace.Write); hit {
			return
		} else if ev.Valid && ev.Dirty {
			fs.l2Writeback(c, ev.LineAddr)
		}
	}
	fs.fromL2(c, line)
}

// upstream sums the per-thread cache statistics.
func (fs *filterState) upstream() *UpstreamStats {
	var u UpstreamStats
	for i := range fs.cores {
		u.L1I.Add(fs.cores[i].l1i.Stats())
		u.L1D.Add(fs.cores[i].l1d.Stats())
		u.L2.Add(fs.cores[i].l2.Stats())
	}
	return &u
}

// RunFiltered profiles the LLC-bound stream of a trace: the raw stream
// is strained through per-thread functional L1I/L1D/L2 caches in one
// pass, and the resulting demand + writeback sequence is profiled like
// Run profiles a raw stream — demand accesses fill the histograms,
// writebacks only update recency, matching how the simulated LLC
// counts hits and misses on demand lookups while writeback arrivals
// still touch replacement state.
func RunFiltered(ctx context.Context, src trace.ChunkSource, h Hierarchy, cfg Config, sc *Scratch) (*Profile, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	if h.BlockBytes == 0 {
		h.BlockBytes = DefaultBlockBytes
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = h.BlockBytes
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BlockBytes != h.BlockBytes {
		return nil, fmt.Errorf("profile: config block size %d differs from hierarchy block size %d", cfg.BlockBytes, h.BlockBytes)
	}
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	fs, err := newFilterState(h, meta.Threads, sc)
	if err != nil {
		return nil, err
	}
	// Single pass over the source: strain each chunk as it is read,
	// growing the LLC-bound lanes in place.
	shift := blockBits(h.BlockBytes)
	sc.fLines = sc.fLines[:0]
	sc.fFlags = sc.fFlags[:0]
	sc.chunk = grow(sc.chunk, chunkLen)
	var read int64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := src.ReadChunk(sc.chunk)
		if err != nil {
			return nil, err
		}
		if m == 0 {
			break
		}
		read += int64(m)
		if read > meta.Accesses {
			return nil, fmt.Errorf("profile %s: stream produced more than the declared %d accesses", meta.Name, meta.Accesses)
		}
		for i := 0; i < m; i++ {
			fs.access(sc.chunk[i], shift)
		}
	}
	if read != meta.Accesses {
		return nil, fmt.Errorf("profile %s: stream produced %d accesses, meta declares %d", meta.Name, read, meta.Accesses)
	}
	p := newProfile(meta, cfg)
	p.Accesses = int64(len(sc.fLines))
	for _, f := range sc.fFlags {
		if f&flagDemand != 0 {
			p.Demand++
		} else {
			p.Writebacks++
		}
	}
	if err := profileLines(ctx, p, sc.fLines, sc.fFlags, cfg, sc); err != nil {
		return nil, err
	}
	p.Upstream = fs.upstream()
	p.finalize()
	return p, nil
}
