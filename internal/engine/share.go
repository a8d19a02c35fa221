package engine

// Cross-job trace sharing. A technology sweep submits many design points
// that differ only in the machine configuration — same workload, same
// generation options — and the result cache cannot help because every
// config is a distinct key. Without sharing, each worker re-runs the
// trace generator for its own job, so an 8-point sweep synthesizes the
// same access sequence 8 times. The sharing layer memoizes generated
// traces per (workload, options) pair: the first job to need one drains
// its source into a buffer, and every other job gets a read-only
// trace.SliceSource cursor over the same backing array, streaming it
// through the normal chunked pipeline. Results are unaffected — a
// SliceSource replays exactly the sequence the generator would have
// produced, and the result-cache key never sees the difference (pinned
// by TestTraceSharingByteIdentical).
//
// Lifetime: each simulation holds a reference for its duration, and
// RunAll pins every distinct share key up front so a batch can never
// evict its own traces. When the last reference drops, a materialized
// trace stays resident, keyed, on an LRU list: a later job over the same
// trace — the next LLC config a serving client submits, the estimate
// artifact's profile after its exact batch — revives it instead of
// regenerating.
// Every materialized trace counts against one byte budget
// (defaultTraceShareLimit). Before a trace is materialized, retained
// entries are evicted least recently used first until it fits, and the
// first evicted buffer large enough is reused for it; the others go to
// the garbage collector. Referenced entries are never evicted, so a
// batch whose traces together exceed the budget still holds them all
// until it ends, and the budget is restored as they are released.

import (
	"container/list"
	"errors"
	"strconv"
	"sync"

	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// shareBytesPerAccess sizes a share against the limit (one trace.Access).
const shareBytesPerAccess = 16

// defaultTraceShareLimit is the budget, in bytes, for all materialized
// traces the sharing layer holds, in use or retained (Engine.shareLimit;
// 0 or less removes the bound). It holds every distinct trace of an
// llcsimd session at 100k accesses (60 traces, about 85 MiB) with room
// to spare. A trace larger than the budget is not materialized: its jobs
// stream directly from their own sources and keep O(chunk) memory.
const defaultTraceShareLimit = 128 << 20

// WithoutTraceSharing disables cross-job trace memoization: every
// streamed job drives its own source, as before.
func WithoutTraceSharing() Option {
	return func(e *Engine) { e.shareOff = true }
}

// shareEntry is one memoized trace. refs counts live holds (running
// simulations plus RunAll pins). Materialization is lazy — a pinned
// entry that no job ends up needing never generates anything. Once
// materialized, an unreferenced entry sits on the engine's idle list
// (elem) until it is revived or evicted.
type shareEntry struct {
	key  traceID
	once sync.Once
	meta trace.Meta
	accs []trace.Access
	err  error
	refs int
	// bytes is the budget the entry's buffer holds (its capacity).
	bytes int64
	elem  *list.Element
}

// traceID identifies the trace a job will stream, independent of the
// machine config: the workload and its resolved generation options. The
// zero value marks a job that takes no part in sharing.
type traceID struct {
	workload string
	opts     workload.Options
}

// shareKey returns the trace a job will stream. A NoCache job is not
// shareable: its provenance is by definition not captured by (Workload,
// TraceOpts).
func shareKey(j Job) (traceID, bool) {
	if j.NoCache || j.Source == nil {
		return traceID{}, false
	}
	return traceID{j.Workload, j.TraceOpts}, true
}

// acquireShare takes a reference on key's entry, creating it on first
// use and reviving it from the idle list when it was retained.
func (e *Engine) acquireShare(key traceID) *shareEntry {
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	sh := e.shares[key]
	if sh == nil {
		sh = &shareEntry{key: key}
		e.shares[key] = sh
	}
	if sh.elem != nil {
		e.idle.Remove(sh.elem)
		sh.elem = nil
	}
	sh.refs++
	return sh
}

// releaseShare drops a reference. The last one retires an entry that
// holds no trace (never needed, or failed) and retains a materialized
// one as the most recently used, then trims retained entries back under
// the budget.
func (e *Engine) releaseShare(sh *shareEntry) {
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	sh.refs--
	if sh.refs > 0 {
		return
	}
	if sh.accs == nil {
		delete(e.shares, sh.key)
		return
	}
	sh.elem = e.idle.PushFront(sh)
	for e.overBudget(0) && e.evictOldest() != nil {
	}
}

// overBudget reports whether materializing need more bytes would take
// the held traces past the budget.
func (e *Engine) overBudget(need int64) bool {
	return e.shareLimit > 0 && e.retainedBytes.Load()+need > e.shareLimit
}

// evictOldest drops the least recently used retained entry and returns
// its buffer (nil when nothing is retained). Callers hold shareMu.
func (e *Engine) evictOldest() []trace.Access {
	back := e.idle.Back()
	if back == nil {
		return nil
	}
	sh := e.idle.Remove(back).(*shareEntry)
	delete(e.shares, sh.key)
	buf := sh.accs
	sh.accs, sh.elem = nil, nil
	e.holdBytes(-sh.bytes)
	return buf
}

// holdBytes moves the held-trace total and its gauge. Callers hold
// shareMu.
func (e *Engine) holdBytes(delta int64) {
	e.reg.Gauge("engine_trace_retained_bytes").Set(float64(e.retainedBytes.Add(delta)))
}

// reserveTrace makes room for an n-access trace in the budget, evicting
// retained entries oldest first, and charges it to sh. It returns the
// first evicted buffer that can hold the trace, or nil when the caller
// must allocate one.
func (e *Engine) reserveTrace(sh *shareEntry, n int64) []trace.Access {
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	var reuse []trace.Access
	for e.overBudget(n * shareBytesPerAccess) {
		buf := e.evictOldest()
		if buf == nil {
			break // the rest of the budget is referenced
		}
		if reuse == nil && int64(cap(buf)) >= n {
			reuse = buf
		}
	}
	sh.bytes = n * shareBytesPerAccess
	if reuse != nil {
		sh.bytes = int64(cap(reuse)) * shareBytesPerAccess
	}
	e.holdBytes(sh.bytes)
	return reuse
}

// pinShares holds a reference on every distinct share key of a job
// batch (the zero traceID marks an unshareable job) for the batch's
// duration, so no trace the batch needs is evicted before its last job,
// whatever the worker-pool shape.
func (e *Engine) pinShares(keys []traceID) func() {
	if e.shareOff {
		return func() {}
	}
	var pins []*shareEntry
	seen := make(map[traceID]bool)
	for _, key := range keys {
		if key == (traceID{}) || seen[key] {
			continue
		}
		seen[key] = true
		pins = append(pins, e.acquireShare(key))
	}
	return func() {
		for _, sh := range pins {
			e.releaseShare(sh)
		}
	}
}

// materialize drains src into the entry's buffer exactly once per entry;
// concurrent and later callers wait on the Once and reuse the slice.
// It reports whether this call performed the generation (its caller
// abandons src either way — sources are cheap to construct, generation
// is the expensive part and happens only here).
func (e *Engine) materialize(sh *shareEntry, src trace.ChunkSource) bool {
	generated := false
	sh.once.Do(func() {
		generated = true
		meta := src.Meta()
		n := meta.Accesses
		buf := e.reserveTrace(sh, n)
		if buf == nil {
			buf = make([]trace.Access, n)
		}
		buf = buf[:n]
		var pos int64
		for pos < n {
			c, err := src.ReadChunk(buf[pos:])
			if err != nil {
				sh.err = err
				break
			}
			if c == 0 {
				sh.err = errors.New("engine: trace " + meta.Name + " ended after " +
					strconv.FormatInt(pos, 10) + " of " + strconv.FormatInt(n, 10) + " declared accesses")
				break
			}
			pos += int64(c)
		}
		if sh.err != nil {
			e.shareMu.Lock()
			e.holdBytes(-sh.bytes)
			sh.bytes = 0
			e.shareMu.Unlock()
			return
		}
		sh.meta = meta
		sh.accs = buf
		e.traceGens.Add(1)
		e.reg.Counter("engine_traces_total", "outcome", "generated").Inc()
	})
	return generated
}

// sharedSource returns the stream a simulation pass over j's trace
// should consume: a cursor over the shared trace, or src itself when the
// job does not take part in sharing or its trace exceeds the budget.
// jobs is the number of design points the pass answers; each counts as
// shared, except the first when this call generated the trace. The
// returned release must be called once the stream is no longer read.
func (e *Engine) sharedSource(j Job, src trace.ChunkSource, jobs int) (trace.ChunkSource, func(), error) {
	key, ok := shareKey(j)
	if e.shareOff || !ok || (e.shareLimit > 0 && src.Meta().Accesses*shareBytesPerAccess > e.shareLimit) {
		return src, func() {}, nil
	}
	sh := e.acquireShare(key)
	count := jobs
	if e.materialize(sh, src) {
		count--
	}
	if sh.err == nil && count > 0 {
		e.traceShared.Add(uint64(count))
		e.reg.Counter("engine_traces_total", "outcome", "shared").Add(uint64(count))
	}
	err := sh.err
	var shared trace.ChunkSource
	if err == nil {
		shared, err = trace.NewSliceSource(sh.meta, sh.accs)
	}
	if err != nil {
		e.releaseShare(sh)
		return nil, nil, err
	}
	return shared, func() { e.releaseShare(sh) }, nil
}
