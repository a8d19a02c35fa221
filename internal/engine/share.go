package engine

// Cross-job trace sharing. A technology sweep submits many design points
// that differ only in the machine configuration — same workload, same
// generation options — and the result cache cannot help because every
// config is a distinct key. Without sharing, each worker re-runs the
// trace generator for its own job, so an 8-point sweep synthesizes the
// same access sequence 8 times. The sharing layer memoizes generated
// traces per (workload, options) pair: the first job to need one drains
// its source into a pooled buffer, and every other job gets a read-only
// trace.SliceSource cursor over the same backing array, streaming it
// through the normal chunked pipeline. Results are unaffected — a
// SliceSource replays exactly the sequence the generator would have
// produced, and the result-cache key never sees the difference (pinned
// by TestTraceSharingByteIdentical).
//
// Lifetime is refcounted: each simulation holds a reference for its
// duration, and RunAll pins every distinct share key up front so a
// serialized worker pool (parallelism 1) still generates once per sweep
// instead of once per job. When the last reference drops, the buffer
// returns to the engine's free list (Engine.traceBufs) for the next
// sweep, or to the garbage collector when the list is full.

import (
	"context"
	"fmt"
	"sync"

	"nvmllc/internal/system"
	"nvmllc/internal/trace"
)

// shareBytesPerAccess sizes a share against the limit (one trace.Access).
const shareBytesPerAccess = 16

// WithoutTraceSharing disables cross-job trace memoization: every
// streamed job drives its own source, as before.
func WithoutTraceSharing() Option {
	return func(e *Engine) { e.shareOff = true }
}

// WithTraceShareLimit bounds the materialized size of a shared trace in
// bytes (0 = unlimited, the default). Traces whose declared access count
// would exceed the limit are not materialized; their jobs stream
// directly from their own sources and keep O(chunk) memory.
func WithTraceShareLimit(bytes int64) Option {
	return func(e *Engine) { e.shareLimit = bytes }
}

// shareEntry is one memoized trace. refs counts live holds (running
// simulations plus RunAll pins); the buffer recycles when it reaches
// zero. Materialization is lazy — a pinned entry that no job ends up
// needing never generates anything.
type shareEntry struct {
	once sync.Once
	meta trace.Meta
	accs []trace.Access
	err  error
	refs int
}

// shareKey identifies the trace a job will stream, independent of the
// machine config. A NoCache job is not shareable: its provenance is by
// definition not captured by (Workload, TraceOpts).
func shareKey(j Job) (string, bool) {
	if j.NoCache || j.Source == nil {
		return "", false
	}
	return fmt.Sprintf("%s|%+v", j.Workload, j.TraceOpts), true
}

// acquireShare takes a reference on the job's share entry, creating it
// on first use. Returns nil when the job does not participate.
func (e *Engine) acquireShare(j Job) *shareEntry {
	if e.shareOff {
		return nil
	}
	key, ok := shareKey(j)
	if !ok {
		return nil
	}
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	if e.shares == nil {
		e.shares = make(map[string]*shareEntry)
	}
	sh := e.shares[key]
	if sh == nil {
		sh = &shareEntry{}
		e.shares[key] = sh
	}
	sh.refs++
	return sh
}

// releaseShare drops a reference; the last one retires the entry and
// recycles its buffer.
func (e *Engine) releaseShare(key string, sh *shareEntry) {
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	sh.refs--
	if sh.refs > 0 {
		return
	}
	if cur, ok := e.shares[key]; ok && cur == sh {
		delete(e.shares, key)
	}
	if sh.accs != nil {
		buf := sh.accs[:0]
		sh.accs = nil
		select {
		case e.traceBufs <- &buf:
		default: // the free list is full
		}
	}
}

// pinShares holds a reference on every distinct share key in a job batch
// for the batch's duration, so amortization survives any worker-pool
// shape (including fully serialized execution, where per-job refcounts
// alone would drop to zero between jobs and regenerate each time).
func (e *Engine) pinShares(jobs []Job) func() {
	if e.shareOff {
		return func() {}
	}
	type pin struct {
		key string
		sh  *shareEntry
	}
	var pins []pin
	seen := make(map[string]bool)
	for _, j := range jobs {
		key, ok := shareKey(j)
		if !ok || seen[key] {
			continue
		}
		seen[key] = true
		if sh := e.acquireShare(j); sh != nil {
			pins = append(pins, pin{key, sh})
		}
	}
	return func() {
		for _, p := range pins {
			e.releaseShare(p.key, p.sh)
		}
	}
}

// materialize drains src into a pooled buffer exactly once per entry;
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
		var buf []trace.Access
		select {
		case p := <-e.traceBufs:
			buf = *p
		default:
		}
		if int64(cap(buf)) < n {
			buf = make([]trace.Access, n)
		}
		buf = buf[:n]
		var pos int64
		for pos < n {
			c, err := src.ReadChunk(buf[pos:])
			if err != nil {
				sh.err = err
				return
			}
			if c == 0 {
				sh.err = fmt.Errorf("engine: trace %s ended after %d of %d declared accesses", meta.Name, pos, n)
				return
			}
			pos += int64(c)
		}
		sh.meta = meta
		sh.accs = buf
		e.traceGens.Add(1)
	})
	return generated
}

// runSource simulates a streamed job, through the sharing layer when the
// job is eligible and the trace fits the share limit.
func (e *Engine) runSource(ctx context.Context, j Job, scratch *system.Scratch) (*system.Result, uint64, error) {
	src, err := j.Source()
	if err != nil {
		return nil, 0, err
	}
	accesses := uint64(src.Meta().Accesses)
	key, ok := shareKey(j)
	if e.shareOff || !ok ||
		(e.shareLimit > 0 && src.Meta().Accesses*shareBytesPerAccess > e.shareLimit) {
		res, err := system.RunStreamWith(ctx, j.Config, src, scratch)
		return res, accesses, err
	}
	sh := e.acquireShare(j)
	defer e.releaseShare(key, sh)
	if !e.materialize(sh, src) && sh.err == nil {
		e.traceShared.Add(1)
	}
	if sh.err != nil {
		return nil, 0, sh.err
	}
	shared, err := trace.NewSliceSource(sh.meta, sh.accs)
	if err != nil {
		return nil, 0, err
	}
	res, err := system.RunStreamWith(ctx, j.Config, shared, scratch)
	return res, accesses, err
}
