package system

// Streaming simulation, the simulator's only execution path: RunStream
// consumes a trace.ChunkSource chunk by chunk (Run wraps a materialized
// trace in a trace.TraceSource), holding O(chunk × ring) access
// memory regardless of trace length, and overlaps generation AND
// pre-decode of upcoming chunks with simulation of the current one
// through an N-slot ring (default defaultRingSlots) cycled between a
// producer goroutine and the consumer over free/out channels.
//
// The producer does everything that used to sit on the consumer's
// critical path: it reads the chunk, validates every access (thread
// bounds, kind, declared per-thread counts), splits it per thread with a
// stable counting scatter, and pre-decodes each access's line address
// and per-level set bases into the slot's SoA lanes (predecode.go). The
// consumer receives finished slots and only moves slice headers: each
// core's share of a slot is a contiguous lane window, queued on the
// core's segment FIFO and consumed in place — no per-access copying or
// append/compaction on the hot path. A slot returns to the ring when
// every core has finished its window (a consumer-side refcount; no
// atomics, since ownership transfers wholly through the channels).
//
// The ring bounds memory, but the min-heap schedule does not bound
// cross-core skew: a core whose accesses stall long can fall arbitrarily
// far behind, pinning its undrained slots while the earliest core
// starves for a chunk the producer cannot build. When the consumer
// detects that state (every slot on its side and the out channel empty)
// it evacuates the oldest held slot — copying its unconsumed lane
// windows into a spill slot recycled through the scratch — and frees the
// ring slot, restoring progress. Evacuation degrades gracefully toward
// the historical copy-into-queues behavior and only runs under skew the
// old design would have paid copying for on every chunk.
//
// Every slot handoff — producer acquiring or sending, consumer receiving
// or returning — selects on the run's lifecycle context alongside the
// stop channel, so a producer error after the consumer has exited (or a
// cancelled run) can never block forever on a full or empty channel.
//
// The scheduling does not depend on chunking: the min-heap picks the
// core with the earliest (local time, index) key, a core stays in the
// heap while it has stream accesses left anywhere in the trace
// (streamLeft, from Meta.PerThread), and when the earliest core's next
// access has not been generated yet the loop refills — which steps no
// other core — until it is. Per-core segment FIFOs preserve program
// order (the counting scatter is stable), and the instruction pacing
// divides the up-front PerThread counts, so results are byte-identical
// for every chunk size and ring depth, and to the retired whole-trace
// path whose output testdata/golden pins.

import (
	"context"
	"fmt"

	"nvmllc/internal/trace"
)

// defaultChunkAccesses is the streaming chunk size (accesses per
// ReadChunk): large enough to amortize the channel handoff to well under
// a nanosecond per access, small enough that the ring stays around a
// megabyte.
const defaultChunkAccesses = 8192

// defaultRingSlots is the streaming ring depth: enough slots that the
// producer's generate+decode of upcoming chunks overlaps the consumer's
// simulation without either side stalling on the other's jitter. A
// deliberate constant rather than a Config field — Config participates
// in the engine's result-cache key, and ring depth must never change a
// result.
const defaultRingSlots = 4

// RunStream simulates a chunked trace source on the configured machine.
// The source is consumed exactly once, sequentially, from a single
// producer goroutine that runs ahead of the simulation by at most the
// ring depth; it must not be shared with other concurrent runs.
func RunStream(ctx context.Context, cfg Config, src trace.ChunkSource) (*Result, error) {
	return RunStreamWith(ctx, cfg, src, nil)
}

// RunStreamWith is RunStream reusing the caller's Scratch buffers (ring
// slots, segment queues, cache arena, directory tables), making repeated
// streaming simulations allocation-free on those paths. It is
// RunStreamGroup with a group of one.
func RunStreamWith(ctx context.Context, cfg Config, src trace.ChunkSource, scratch *Scratch) (*Result, error) {
	res, err := RunStreamGroup(ctx, []Config{cfg}, src, scratch)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunStreamGroup simulates one trace on every config of cfgs from a
// single functional pass: the walk through the tag stores runs once and
// drives one timing backend per config, and results[i] is byte-identical
// to what RunStreamWith would return for cfgs[i] alone. A group of more
// than one needs a single-threaded trace (a multi-threaded walk's core
// order follows the clocks, which differ per config) and configs that
// are all Groupable and share cfgs[0]'s machine (Config.SameMachine).
func RunStreamGroup(ctx context.Context, cfgs []Config, src trace.ChunkSource, scratch *Scratch) ([]*Result, error) {
	res, _, err := runStreamChunked(ctx, cfgs, src, scratch, defaultChunkAccesses, defaultRingSlots)
	return res, err
}

// streamStats reports internals of one streaming run for tests and
// diagnostics: chunks received and skew evacuations performed.
type streamStats struct {
	chunks      uint64
	evacuations uint64
}

// checkGroup validates a run's configs against its trace.
func checkGroup(cfgs []Config, meta trace.Meta) error {
	for _, cfg := range cfgs {
		if meta.Threads > cfg.Cores {
			return fmt.Errorf("system: trace %s has %d threads but only %d cores", meta.Name, meta.Threads, cfg.Cores)
		}
	}
	if len(cfgs) == 1 {
		return nil
	}
	if meta.Threads != 1 {
		return fmt.Errorf("system: trace %s has %d threads; a group of %d configs needs a single-threaded trace", meta.Name, meta.Threads, len(cfgs))
	}
	for i, cfg := range cfgs {
		if !cfg.Groupable() {
			return fmt.Errorf("system: config %d of a group of %d uses a timeline, faults, bypass, a hybrid LLC or a custom main memory", i, len(cfgs))
		}
		if !cfgs[0].SameMachine(cfg) {
			return fmt.Errorf("system: config %d of a group differs from config 0 in a functional field", i)
		}
	}
	return nil
}

func runStreamChunked(ctx context.Context, cfgs []Config, src trace.ChunkSource, scratch *Scratch, chunkAccesses, ringSlots int) ([]*Result, streamStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, streamStats{}, err
	}
	if len(cfgs) == 0 {
		return nil, streamStats{}, fmt.Errorf("system: empty config group")
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, streamStats{}, err
		}
	}
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, streamStats{}, err
	}
	if err := checkGroup(cfgs, meta); err != nil {
		return nil, streamStats{}, err
	}
	if chunkAccesses <= 0 {
		return nil, streamStats{}, fmt.Errorf("system: chunk size %d, want positive", chunkAccesses)
	}
	if ringSlots < 2 {
		return nil, streamStats{}, fmt.Errorf("system: ring slots %d, want ≥ 2", ringSlots)
	}
	if scratch == nil {
		scratch = new(Scratch)
	}
	sim, err := newSimulator(cfgs, meta, scratch)
	if err != nil {
		return nil, streamStats{}, err
	}
	defer sim.releaseScratch(scratch)

	// Wire the stream: segment queues start empty, streamLeft counts
	// everything the core will consume (generated or not), pacing divides
	// the source's declared PerThread totals.
	if cap(scratch.segq) < meta.Threads {
		scratch.segq = make([][]*ringSlot, meta.Threads)
	}
	scratch.segq = scratch.segq[:meta.Threads]
	for t, cs := range sim.cores {
		cs.clearLanes()
		cs.cur = nil
		cs.segs = segQueue{q: scratch.segq[t][:0]}
		cs.streamLeft = meta.PerThread[t]
	}
	sim.spreadBudgets(meta.InstrCount, meta.PerThread)
	// Return the (possibly regrown) queue storage to the scratch whatever
	// the outcome.
	defer func() {
		for t, cs := range sim.cores {
			scratch.segq[t] = cs.segs.q[:0]
		}
	}()

	st := newStreamState(ctx, src, scratch, chunkAccesses, ringSlots, meta, newDecoder(sim))
	defer st.shutdown()
	if err := sim.runStream(ctx, st); err != nil {
		return nil, st.stats, err
	}
	return sim.results(meta.Name), st.stats, nil
}

// ringSlot is one streaming buffer: the producer's raw chunk, the
// decoded SoA lanes, and the per-thread windows into them. refs counts
// the windows the consumer has not finished; the slot goes back on the
// free channel when it reaches zero. Spill slots (evacuation overflow)
// have a nil raw buffer and recycle through the scratch instead of the
// ring.
type ringSlot struct {
	raw  []trace.Access
	lane laneBuf
	segs []slotSeg
	refs int32
	err  error
}

// slotSeg is one thread's window into a slot's lanes.
type slotSeg struct{ off, n int32 }

// segQueue is a per-core FIFO of slots whose window for this core is
// pending. Capacity is usually the ring depth; spill slots can push it
// further, so it grows (with head compaction) rather than being fixed.
type segQueue struct {
	q    []*ringSlot
	head int
}

func (s *segQueue) empty() bool { return s.head >= len(s.q) }

func (s *segQueue) push(sl *ringSlot) {
	if s.head > 0 && len(s.q) == cap(s.q) {
		n := copy(s.q, s.q[s.head:])
		s.q = s.q[:n]
		s.head = 0
	}
	s.q = append(s.q, sl)
}

func (s *segQueue) pop() *ringSlot {
	if s.head >= len(s.q) {
		return nil
	}
	sl := s.q[s.head]
	s.q[s.head] = nil
	s.head++
	if s.head >= len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	return sl
}

// replace swaps a pending slot pointer (evacuation re-targets a segment
// from a ring slot to its spill copy).
func (s *segQueue) replace(old, new *ringSlot) bool {
	for i := s.head; i < len(s.q); i++ {
		if s.q[i] == old {
			s.q[i] = new
			return true
		}
	}
	return false
}

// streamState runs the producer goroutine and hands its finished slots
// to the consumer.
type streamState struct {
	meta trace.Meta
	ctx  context.Context
	dec  decoder
	// free carries drained slots back to the producer; out carries
	// filled ones forward. Together they bound the producer's lead at the
	// ring depth.
	free chan *ringSlot
	out  chan *ringSlot
	// stop aborts the producer early; the producer closes out on exit, so
	// shutdown can drain to completion.
	stop chan struct{}
	// produced/counts/offs are producer-owned: per-thread totals checked
	// against meta.PerThread (a source that lies about its Meta fails
	// loudly instead of corrupting the pacing) and per-chunk scatter
	// cursors.
	produced []int64
	counts   []int32
	offs     []int32
	// Consumer-side state: slots received but not fully consumed, in
	// arrival order (ring slots only — spills are tracked by the segment
	// queues alone).
	held     []*ringSlot
	inFlight int
	slots    int
	chunk    int
	scratch  *Scratch
	done     bool
	stats    streamStats
}

func newStreamState(ctx context.Context, src trace.ChunkSource, scratch *Scratch, chunkAccesses, ringSlots int, meta trace.Meta, dec decoder) *streamState {
	st := &streamState{
		meta:     meta,
		ctx:      ctx,
		dec:      dec,
		free:     make(chan *ringSlot, ringSlots),
		out:      make(chan *ringSlot, ringSlots),
		stop:     make(chan struct{}),
		produced: make([]int64, meta.Threads),
		counts:   make([]int32, meta.Threads),
		offs:     make([]int32, meta.Threads),
		held:     make([]*ringSlot, 0, ringSlots),
		slots:    ringSlots,
		chunk:    chunkAccesses,
		scratch:  scratch,
	}
	for len(scratch.slots) < ringSlots {
		scratch.slots = append(scratch.slots, new(ringSlot))
	}
	for i := 0; i < ringSlots; i++ {
		sl := scratch.slots[i]
		if cap(sl.raw) < chunkAccesses {
			sl.raw = make([]trace.Access, chunkAccesses)
		}
		sl.raw = sl.raw[:chunkAccesses]
		sl.lane.ensure(chunkAccesses)
		sl.prepare(meta.Threads)
		st.free <- sl
	}
	go st.produce(src)
	return st
}

// prepare resets a slot for a new chunk.
func (sl *ringSlot) prepare(threads int) {
	if cap(sl.segs) < threads {
		sl.segs = make([]slotSeg, threads)
	}
	sl.segs = sl.segs[:threads]
	sl.refs = 0
	sl.err = nil
}

// produce runs the source ahead of the simulation, one chunk per free
// slot, validating, splitting and pre-decoding each chunk before the
// handoff. It owns src: ReadChunk is only ever called here,
// sequentially.
func (st *streamState) produce(src trace.ChunkSource) {
	defer close(st.out)
	for {
		var sl *ringSlot
		select {
		case sl = <-st.free:
		case <-st.stop:
			return
		case <-st.ctx.Done():
			return
		}
		n, err := src.ReadChunk(sl.raw[:st.chunk])
		if err == nil && n > 0 {
			err = st.fill(sl, n)
		}
		if err != nil {
			sl.err = err
			st.send(sl)
			return
		}
		if n == 0 {
			return // exhausted
		}
		if !st.send(sl) {
			return
		}
	}
}

// send hands a finished slot to the consumer, abandoning it if the run
// is stopping or the lifecycle context is cancelled (so a producer error
// after the consumer has exited can never block forever).
func (st *streamState) send(sl *ringSlot) bool {
	select {
	case st.out <- sl:
		return true
	case <-st.stop:
		return false
	case <-st.ctx.Done():
		return false
	}
}

// fill validates a raw chunk and scatters it into the slot's lanes: one
// counting pass (validation + per-thread counts), then a stable
// per-thread scatter that decodes each access in the same step
// (predecode.go), so the consumer receives contiguous, program-ordered,
// fully decoded windows per thread.
func (st *streamState) fill(sl *ringSlot, n int) error {
	accs := sl.raw[:n]
	counts := st.counts
	for t := range counts {
		counts[t] = 0
	}
	threads := st.meta.Threads
	for i := range accs {
		a := &accs[i]
		if int(a.Tid) >= threads {
			return fmt.Errorf("trace %s: streamed access has tid %d ≥ threads %d", st.meta.Name, a.Tid, threads)
		}
		if a.Kind > trace.Ifetch {
			return fmt.Errorf("trace %s: streamed access has invalid kind %d", st.meta.Name, a.Kind)
		}
		counts[a.Tid]++
	}
	off := int32(0)
	for t := 0; t < threads; t++ {
		if st.produced[t]+int64(counts[t]) > st.meta.PerThread[t] {
			return fmt.Errorf("trace %s: thread %d produced more than its declared %d accesses", st.meta.Name, t, st.meta.PerThread[t])
		}
		st.produced[t] += int64(counts[t])
		sl.segs[t] = slotSeg{off: off, n: counts[t]}
		st.offs[t] = off
		off += counts[t]
		if counts[t] > 0 {
			sl.refs++
		}
	}
	d := &st.dec
	offs := st.offs
	for i := range accs {
		a := accs[i]
		j := offs[a.Tid]
		offs[a.Tid] = j + 1
		d.put(&sl.lane, int(j), a)
	}
	return nil
}

// shutdown stops the producer and drains its output, so the ring slots
// are quiescent (safe to reuse from the scratch) on return.
func (st *streamState) shutdown() {
	close(st.stop)
	for range st.out {
	}
}

// release retires one finished segment of a slot. When the last segment
// finishes, a ring slot returns to the producer and a spill slot returns
// to the scratch's recycle list.
func (st *streamState) release(sl *ringSlot) {
	sl.refs--
	if sl.refs > 0 {
		return
	}
	if sl.raw == nil {
		st.scratch.spills = append(st.scratch.spills, sl)
		return
	}
	for i, h := range st.held {
		if h == sl {
			st.held = append(st.held[:i], st.held[i+1:]...)
			break
		}
	}
	st.inFlight--
	sl.prepare(st.meta.Threads)
	select {
	case st.free <- sl:
	case <-st.ctx.Done():
	}
}

// advance moves a core onto its next pending decoded segment, releasing
// the one it finished. It reports whether a segment was installed.
func (st *streamState) advance(cs *coreState) bool {
	if cs.cur != nil {
		st.release(cs.cur)
		cs.cur = nil
		cs.clearLanes()
	}
	sl := cs.segs.pop()
	if sl == nil {
		return false
	}
	seg := sl.segs[cs.idx]
	cs.cur = sl
	cs.setLanes(&sl.lane, int(seg.off), int(seg.n))
	return true
}

// refill receives the next finished slot and queues its windows on the
// owning cores. It returns false with a nil error when the source is
// exhausted. If every ring slot is already on the consumer's side and
// nothing is in flight, the producer is starved by schedule skew and the
// oldest held slot is evacuated first.
func (s *simulator) refill(st *streamState) (bool, error) {
	if st.done {
		return false, nil
	}
	var sl *ringSlot
	select {
	case got, ok := <-st.out:
		if !ok {
			st.done = true
			return false, nil
		}
		sl = got
	default:
		if st.inFlight == st.slots {
			st.evacuate(s)
		}
		select {
		case got, ok := <-st.out:
			if !ok {
				st.done = true
				return false, nil
			}
			sl = got
		case <-st.ctx.Done():
			return false, st.ctx.Err()
		}
	}
	if sl.err != nil {
		st.done = true
		return false, sl.err
	}
	st.stats.chunks++
	st.inFlight++
	st.held = append(st.held, sl)
	for t := 0; t < st.meta.Threads; t++ {
		if sl.segs[t].n > 0 {
			s.cores[t].segs.push(sl)
		}
	}
	return true, nil
}

// evacuate frees the oldest consumer-held ring slot by copying its
// unconsumed lane windows into a spill slot (recycled through the
// scratch), re-targeting the affected cores' pending segments at the
// copies. Only runs when schedule skew has pinned every ring slot on the
// consumer's side — the state that would otherwise deadlock the bounded
// ring against a starved producer.
func (st *streamState) evacuate(s *simulator) {
	old := st.held[0]
	var spill *ringSlot
	if n := len(st.scratch.spills); n > 0 {
		spill = st.scratch.spills[n-1]
		st.scratch.spills = st.scratch.spills[:n-1]
	} else {
		spill = new(ringSlot)
	}
	spill.lane.ensure(st.chunk)
	spill.prepare(st.meta.Threads)
	off := int32(0)
	for t := 0; t < st.meta.Threads; t++ {
		cs := s.cores[t]
		switch {
		case cs.cur == old:
			// Copy only the unconsumed remainder of the core's current
			// views and re-point them at the spill.
			rem := int32(len(cs.line) - cs.pos)
			srcOff := old.segs[t].off + old.segs[t].n - rem
			copyLaneWindow(&spill.lane, off, &old.lane, srcOff, rem)
			spill.segs[t] = slotSeg{off: off, n: rem}
			cs.cur = spill
			cs.setLanes(&spill.lane, int(off), int(rem))
			off += rem
			spill.refs++
		case cs.segs.replace(old, spill):
			seg := old.segs[t]
			copyLaneWindow(&spill.lane, off, &old.lane, seg.off, seg.n)
			spill.segs[t] = slotSeg{off: off, n: seg.n}
			off += seg.n
			spill.refs++
		}
	}
	old.refs = 0
	st.held = st.held[1:]
	st.inFlight--
	old.prepare(st.meta.Threads)
	select {
	case st.free <- old:
	case <-st.ctx.Done():
	}
	st.stats.evacuations++
}

// copyLaneWindow copies n decoded accesses between lane buffers.
func copyLaneWindow(dst *laneBuf, dstOff int32, src *laneBuf, srcOff, n int32) {
	d, s0, s1 := int(dstOff), int(srcOff), int(srcOff+n)
	copy(dst.line[d:], src.line[s0:s1])
	copy(dst.l1[d:], src.l1[s0:s1])
	copy(dst.l2[d:], src.l2[s0:s1])
	copy(dst.llc[d:], src.llc[s0:s1])
	copy(dst.kind[d:], src.kind[s0:s1])
}

// runStream interleaves the per-core access streams in core-local time
// order: each step advances the core with the earliest local clock
// (sched.go's min-heap), which keeps shared-resource (LLC, DRAM)
// interactions approximately causal. A core advances to its next segment
// when the current window drains, and the loop refills inline whenever
// the earliest core's next access has not been delivered yet.
func (s *simulator) runStream(ctx context.Context, st *streamState) error {
	h := newCoreHeap(s.cores)
	steps := 0
	for h.len() > 0 {
		cs := h.min()
		if cs.pos >= len(cs.line) {
			if st.advance(cs) {
				continue
			}
			more, err := s.refill(st)
			if err != nil {
				return err
			}
			if !more {
				return fmt.Errorf("trace %s: stream ended with %d accesses of thread %d undelivered", st.meta.Name, cs.streamLeft, cs.idx)
			}
			continue
		}
		s.step(cs)
		cs.streamLeft--
		if cs.streamLeft == 0 {
			if cs.cur != nil {
				st.release(cs.cur)
				cs.cur = nil
			}
			h.popMin()
		} else {
			h.fixMin(cs.core.TimeNS())
		}
		if steps++; steps >= cancelCheckInterval {
			steps = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	s.retireRemainder()
	return nil
}
