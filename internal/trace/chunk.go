package trace

import "fmt"

// Meta describes a streamed trace before any of its accesses are
// produced: everything the simulator must know up front to reproduce a
// whole-trace run exactly — the instruction budget it spreads over
// threads and the per-thread access counts its per-access instruction
// pacing divides by — without materializing the accesses.
type Meta struct {
	// Name identifies the workload that produces the stream.
	Name string
	// Threads is the number of distinct thread IDs.
	Threads int
	// InstrCount is the number of instructions the trace represents; at
	// least Accesses.
	InstrCount uint64
	// Accesses is the total number of accesses the source will produce.
	Accesses int64
	// PerThread is the per-thread access count (len Threads, summing to
	// Accesses). Callers must treat it as read-only.
	PerThread []int64
}

// Validate checks the stream invariants Trace.Validate checks for
// in-memory traces, minus the per-access ones (those are enforced
// chunk-by-chunk as the stream is consumed).
func (m Meta) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("trace: unnamed stream")
	}
	if m.Threads <= 0 {
		return fmt.Errorf("trace %s: threads = %d, want positive", m.Name, m.Threads)
	}
	if m.Accesses < 0 {
		return fmt.Errorf("trace %s: negative access count %d", m.Name, m.Accesses)
	}
	if m.InstrCount < uint64(m.Accesses) {
		return fmt.Errorf("trace %s: instruction count %d below access count %d", m.Name, m.InstrCount, m.Accesses)
	}
	if len(m.PerThread) != m.Threads {
		return fmt.Errorf("trace %s: per-thread counts len %d, want %d", m.Name, len(m.PerThread), m.Threads)
	}
	var sum int64
	for t, n := range m.PerThread {
		if n < 0 {
			return fmt.Errorf("trace %s: thread %d has negative access count %d", m.Name, t, n)
		}
		// sum ≤ Accesses holds here, so this bound cannot overflow where
		// sum += n could wrap back onto Accesses.
		if n > m.Accesses-sum {
			return fmt.Errorf("trace %s: per-thread counts exceed %d accesses at thread %d", m.Name, m.Accesses, t)
		}
		sum += n
	}
	if sum != m.Accesses {
		return fmt.Errorf("trace %s: per-thread counts sum to %d, want %d", m.Name, sum, m.Accesses)
	}
	return nil
}

// ChunkSource produces a trace one chunk at a time, so consumers hold
// O(chunk) access memory regardless of trace length. Implementations are
// stateful single-pass iterators: ReadChunk calls must be sequential
// (internal/system issues them from a single generator goroutine,
// overlapping generation of chunk N+1 with simulation of chunk N).
type ChunkSource interface {
	// Meta describes the full trace. It must be constant across the
	// stream's lifetime and callable before, during and after iteration.
	Meta() Meta
	// ReadChunk fills buf with the next accesses in program order and
	// returns how many were written. A return of 0 with a nil error means
	// the stream is exhausted; it must keep returning 0 afterwards.
	ReadChunk(buf []Access) (int, error)
}

// TraceSource adapts an in-memory Trace to a ChunkSource (the
// equivalence tests stream materialized traces through it; callers with
// real traces on disk would implement ChunkSource over the codec
// instead).
type TraceSource struct {
	tr   *Trace
	meta Meta
	pos  int
}

// NewTraceSource validates the trace and computes its per-thread counts.
func NewTraceSource(tr *Trace) (*TraceSource, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	per := make([]int64, tr.Threads)
	for i := range tr.Accesses {
		per[tr.Accesses[i].Tid]++
	}
	return &TraceSource{
		tr: tr,
		meta: Meta{
			Name:       tr.Name,
			Threads:    tr.Threads,
			InstrCount: tr.InstrCount,
			Accesses:   int64(len(tr.Accesses)),
			PerThread:  per,
		},
	}, nil
}

// Meta describes the underlying trace.
func (s *TraceSource) Meta() Meta { return s.meta }

// ReadChunk copies the next window of the trace into buf.
func (s *TraceSource) ReadChunk(buf []Access) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("trace %s: ReadChunk with empty buffer", s.meta.Name)
	}
	n := copy(buf, s.tr.Accesses[s.pos:])
	s.pos += n
	return n, nil
}

// Reset rewinds the source to the beginning of the trace.
func (s *TraceSource) Reset() { s.pos = 0 }

// SliceSource adapts a shared, read-only access slice plus its Meta to a
// ChunkSource. Unlike TraceSource it carries no *Trace and performs no
// validation of its own — the engine's trace-sharing layer materializes
// one slice per distinct (workload, options) pair and hands every design
// point its own SliceSource cursor over the same backing array, so the
// slice must not be mutated while any cursor is live. The simulator's
// per-chunk validation still applies to every access read through it.
type SliceSource struct {
	accs []Access
	meta Meta
	pos  int
}

// NewSliceSource wraps a shared access slice. The meta must describe
// exactly the accesses in the slice (same counts and per-thread totals).
func NewSliceSource(meta Meta, accs []Access) (*SliceSource, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if int64(len(accs)) != meta.Accesses {
		return nil, fmt.Errorf("trace %s: slice has %d accesses, meta declares %d", meta.Name, len(accs), meta.Accesses)
	}
	return &SliceSource{accs: accs, meta: meta}, nil
}

// Meta describes the shared trace.
func (s *SliceSource) Meta() Meta { return s.meta }

// ReadChunk copies the next window of the shared slice into buf.
func (s *SliceSource) ReadChunk(buf []Access) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("trace %s: ReadChunk with empty buffer", s.meta.Name)
	}
	n := copy(buf, s.accs[s.pos:])
	s.pos += n
	return n, nil
}
