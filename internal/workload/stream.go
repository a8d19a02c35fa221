package workload

// Chunk-at-a-time trace generation. Generator produces the exact access
// sequence Generate materializes — same mixture state machine, same RNG
// consumption order — through the trace.ChunkSource interface, so the
// simulator can stream paper-scale access counts with O(chunk) memory
// and overlap generation with simulation (see system.RunStream).
// Generate itself is one ReadChunk over a full-trace buffer, which makes
// the two paths identical by construction.

import (
	"fmt"
	"math/rand"

	"nvmllc/internal/trace"
)

// Generator streams a profile's synthetic trace chunk by chunk. It is a
// stateful single-pass iterator (see trace.ChunkSource); Reset rewinds
// it to the start of the identical deterministic sequence, re-seeding
// the per-thread RNGs in place so steady-state regeneration does not
// reallocate them.
type Generator struct {
	prof    Profile
	opts    Options
	threads int
	total   int
	next    int
	cum     []float64
	sum     float64
	states  []generatorState
	meta    trace.Meta
}

// NewGenerator validates the profile and prepares the per-thread
// generation state. The (profile, Options) pair fully determines the
// stream, exactly as it determines Generate's trace.
func NewGenerator(p Profile, opts Options) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = p.Resolve(opts)
	threads := opts.Threads
	if threads > 64 {
		return nil, fmt.Errorf("workload %s: %d threads exceeds limit 64", p.Name, threads)
	}
	total := int(float64(opts.Accesses) * p.LengthFactor)
	if total < 1000 {
		total = 1000
	}

	g := &Generator{
		prof:    p,
		opts:    opts,
		threads: threads,
		cum:     make([]float64, len(p.Components)),
	}
	for i, c := range p.Components {
		g.sum += c.Weight
		g.cum[i] = g.sum
	}

	nc := len(p.Components)
	g.states = make([]generatorState, threads)
	zipfsFlat := make([]*rand.Zipf, threads*nc)
	cursorsFlat := make([]int64, threads*nc)
	for t := 0; t < threads; t++ {
		rng := rand.New(rand.NewSource(g.threadSeed(t)))
		st := &g.states[t]
		st.rng = rng
		st.zipfs = zipfsFlat[t*nc : (t+1)*nc]
		st.cursors = cursorsFlat[t*nc : (t+1)*nc]
		for i, c := range p.Components {
			if c.Kind == Hot {
				s := c.ZipfS
				if s == 0 {
					s = 1.3
				}
				st.zipfs[i] = rand.NewZipf(rng, s, 1, uint64(c.Lines-1))
			}
		}
	}
	g.resetCursors()

	// The trace length is total rounded down to a multiple of threads,
	// with tid = index mod threads, so every thread's count is exact up
	// front — the piece of whole-trace knowledge the simulator's
	// instruction pacing needs before the first access exists.
	perThread := total / threads
	g.total = perThread * threads
	per := make([]int64, threads)
	for t := range per {
		per[t] = int64(perThread)
	}
	g.meta = trace.Meta{
		Name:       p.Name,
		Threads:    threads,
		InstrCount: uint64(float64(g.total) * p.InstrPerAccess),
		Accesses:   int64(g.total),
		PerThread:  per,
	}
	return g, nil
}

// threadSeed is the deterministic per-thread RNG seed (unchanged from
// the original whole-trace generator).
func (g *Generator) threadSeed(t int) int64 {
	return g.opts.Seed + int64(t)*7919 + hashName(g.prof.Name)
}

// resetCursors re-staggers the Stream-component cursors across threads.
func (g *Generator) resetCursors() {
	for t := range g.states {
		st := &g.states[t]
		for i, c := range g.prof.Components {
			if c.Kind == Stream {
				st.cursors[i] = (c.Lines / int64(len(g.states))) * int64(t)
			} else {
				st.cursors[i] = 0
			}
		}
	}
}

// Meta describes the stream (see trace.Meta); callers must not mutate
// the shared PerThread slice.
func (g *Generator) Meta() trace.Meta { return g.meta }

// Reset rewinds the generator to the start of its sequence. The
// per-thread RNGs are re-seeded in place (their Zipf samplers keep
// pointing at them), so resetting allocates nothing.
func (g *Generator) Reset() {
	g.next = 0
	for t := range g.states {
		g.states[t].rng.Seed(g.threadSeed(t))
	}
	g.resetCursors()
}

// ReadChunk fills buf with the next accesses of the stream, returning
// how many were produced (0 when exhausted). Generation allocates
// nothing per access.
func (g *Generator) ReadChunk(buf []trace.Access) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("workload %s: ReadChunk with empty buffer", g.prof.Name)
	}
	n := g.total - g.next
	if n > len(buf) {
		n = len(buf)
	}
	for k := 0; k < n; k++ {
		i := g.next + k
		t := i % g.threads
		st := &g.states[t]
		ci := pickComponent(st.rng, g.cum, g.sum)
		c := &g.prof.Components[ci]

		var line int64
		switch c.Kind {
		case Hot:
			line = int64(st.zipfs[ci].Uint64())
		case Stream:
			line = st.cursors[ci]
			st.cursors[ci]++
			if st.cursors[ci] >= c.Lines {
				st.cursors[ci] = 0
			}
		case Random:
			line = st.rng.Int63n(c.Lines)
		}
		addr := componentBase(g.prof.Name, ci, t, c.Shared) + uint64(line)*lineBytes
		kind := trace.Read
		if st.rng.Float64() < c.WriteFrac {
			kind = trace.Write
		}
		buf[k] = trace.Access{Addr: addr, Kind: kind, Tid: uint8(t)}
	}
	g.next += n
	return n, nil
}
