// Package trace defines memory-access traces: the interchange format
// between the synthetic workload generators (internal/workload), the
// PRISM-style characterization framework (internal/prism), and the
// full-system simulator (internal/system).
//
// A trace is a sequence of Access records in program order. Traces can be
// held in memory (Trace), streamed (TraceSource/Reader), and serialized with a
// compact delta-encoded binary codec (Writer/Reader).
package trace

import "fmt"

// Kind is the access type.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
	// Ifetch is an instruction fetch.
	Ifetch
)

// String names the kind ("read", "write", "ifetch").
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Ifetch:
		return "ifetch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one memory reference.
type Access struct {
	// Addr is the virtual byte address.
	Addr uint64
	// Kind is the access type.
	Kind Kind
	// Tid is the issuing thread ID.
	Tid uint8
}

// Trace is an in-memory access sequence plus the instruction count of the
// region it represents (used for MPKI and CPI computations: synthetic
// generators emit a memory trace standing for InstrCount executed
// instructions).
type Trace struct {
	// Name identifies the workload that produced the trace.
	Name string
	// Accesses is the access sequence in program order.
	Accesses []Access
	// InstrCount is the number of instructions the trace represents; at
	// least len(Accesses).
	InstrCount uint64
	// Threads is the number of distinct thread IDs (1 for single-threaded).
	Threads int
}

// Validate checks trace invariants.
func (t *Trace) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("trace: unnamed trace")
	}
	if t.Threads <= 0 {
		return fmt.Errorf("trace %s: threads = %d, want positive", t.Name, t.Threads)
	}
	if t.InstrCount < uint64(len(t.Accesses)) {
		return fmt.Errorf("trace %s: instruction count %d below access count %d", t.Name, t.InstrCount, len(t.Accesses))
	}
	for i, a := range t.Accesses {
		if int(a.Tid) >= t.Threads {
			return fmt.Errorf("trace %s: access %d has tid %d ≥ threads %d", t.Name, i, a.Tid, t.Threads)
		}
		if a.Kind > Ifetch {
			return fmt.Errorf("trace %s: access %d has invalid kind %d", t.Name, i, a.Kind)
		}
	}
	return nil
}

// Counts tallies the accesses by kind.
func (t *Trace) Counts() (reads, writes, ifetches uint64) {
	for _, a := range t.Accesses {
		switch a.Kind {
		case Read:
			reads++
		case Write:
			writes++
		case Ifetch:
			ifetches++
		}
	}
	return
}
