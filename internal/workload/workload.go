// Package workload generates the synthetic memory-access traces that stand
// in for the paper's benchmark suites (SPEC cpu2006/cpu2017, PARSEC 3.0,
// NPB 3.3.1 — Table V). The real benchmarks and their billion-access traces
// are unavailable offline, so each benchmark is modeled as a deterministic
// mixture of access components (hot sets, streams, uniform regions)
// whose parameters are calibrated to the paper's published per-benchmark
// measurements:
//
//   - read/write mix and relative trace length from Table VI's
//     r_total/w_total;
//   - unique and 90% footprints (scaled down by a documented factor) and
//     the concentration (90% footprint ÷ unique footprint) from Table VI;
//   - LLC pressure (working-set span vs the 2MB baseline LLC) from
//     Table V's MPKI.
//
// Generation is fully deterministic for a given (profile, Options) pair.
package workload

import (
	"fmt"
	"math/rand"

	"nvmllc/internal/trace"
)

// ComponentKind selects the address-generation behavior of one mixture
// component.
type ComponentKind int

const (
	// Hot draws Zipf-distributed addresses from a small footprint,
	// modeling a high-reuse working set (caches, stacks, tables).
	Hot ComponentKind = iota
	// Stream walks sequentially through its region one line per access,
	// wrapping around, modeling array sweeps.
	Stream
	// Random draws uniformly from its region, modeling irregular
	// pointer-chasing and hash-table traffic.
	Random
)

// String names the component kind.
func (k ComponentKind) String() string {
	switch k {
	case Hot:
		return "hot"
	case Stream:
		return "stream"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("ComponentKind(%d)", int(k))
	}
}

// Component is one behavior in a workload's mixture.
type Component struct {
	// Kind is the address-generation behavior.
	Kind ComponentKind
	// Weight is the relative share of accesses drawn from this component.
	Weight float64
	// Lines is the footprint in 64-byte lines.
	Lines int64
	// WriteFrac is the probability an access from this component is a
	// store.
	WriteFrac float64
	// ZipfS is the Zipf skew for Hot components (must be > 1; default
	// 1.3).
	ZipfS float64
	// Shared makes multi-threaded threads address a single region instead
	// of per-thread partitions (shared arrays vs private heaps).
	Shared bool
}

// Profile describes one benchmark's synthetic model.
type Profile struct {
	// Name matches the Table V benchmark name.
	Name string
	// MT marks multi-threaded workloads; single-threaded profiles always
	// generate one thread.
	MT bool
	// InstrPerAccess is the number of instructions each memory access
	// represents.
	InstrPerAccess float64
	// LengthFactor scales the trace length relative to Options.Accesses,
	// preserving the paper's relative total access counts across
	// workloads.
	LengthFactor float64
	// Components is the access mixture; weights are normalized internally.
	Components []Component
}

// Validate checks profile invariants.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if p.InstrPerAccess < 1 {
		return fmt.Errorf("workload %s: instructions per access %g must be ≥ 1", p.Name, p.InstrPerAccess)
	}
	if p.LengthFactor <= 0 {
		return fmt.Errorf("workload %s: length factor %g must be positive", p.Name, p.LengthFactor)
	}
	if len(p.Components) == 0 {
		return fmt.Errorf("workload %s: no components", p.Name)
	}
	var totalW float64
	for i, c := range p.Components {
		if c.Weight <= 0 {
			return fmt.Errorf("workload %s: component %d weight %g must be positive", p.Name, i, c.Weight)
		}
		if c.Lines <= 0 {
			return fmt.Errorf("workload %s: component %d has no footprint", p.Name, i)
		}
		if c.WriteFrac < 0 || c.WriteFrac > 1 {
			return fmt.Errorf("workload %s: component %d write fraction %g outside [0,1]", p.Name, i, c.WriteFrac)
		}
		if c.Kind == Hot && c.ZipfS != 0 && c.ZipfS <= 1 {
			return fmt.Errorf("workload %s: component %d Zipf skew %g must be > 1", p.Name, i, c.ZipfS)
		}
		totalW += c.Weight
	}
	if totalW <= 0 {
		return fmt.Errorf("workload %s: zero total weight", p.Name)
	}
	return nil
}

// WriteFraction returns the expected store share of the mixture.
func (p Profile) WriteFraction() float64 {
	var w, total float64
	for _, c := range p.Components {
		w += c.Weight * c.WriteFrac
		total += c.Weight
	}
	if total == 0 {
		return 0
	}
	return w / total
}

// FootprintLines returns the summed component footprints (an upper bound
// on the lines the workload can touch).
func (p Profile) FootprintLines() int64 {
	var n int64
	for _, c := range p.Components {
		n += c.Lines
	}
	return n
}

// Options controls trace generation.
type Options struct {
	// Accesses is the base trace length before LengthFactor scaling
	// (default 1_000_000).
	Accesses int
	// Threads is the thread count for MT profiles (default 4;
	// single-threaded profiles always run 1).
	Threads int
	// Seed selects the deterministic random stream (default 1).
	Seed int64
}

// Resolve returns the options the profile's generator actually runs
// with: zero fields take their defaults, and a single-threaded profile
// runs one thread whatever Threads says. Two Options values that resolve
// equal produce the identical trace, so the resolved form is the
// trace's identity.
func (p Profile) Resolve(o Options) Options {
	if o.Accesses <= 0 {
		o.Accesses = 1_000_000
	}
	if !p.MT {
		o.Threads = 1
	} else if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// addrBits carves the 64-bit address space: each component gets a region,
// each thread a partition within non-shared regions.
const (
	componentShift = 44
	threadShift    = 38
	lineBytes      = 64
)

// generatorState holds one thread's per-component cursors and RNG. The
// zipfs and cursors slices are windows into flat threads×components
// arrays shared by all states, so per-thread setup costs two allocations
// (the RNG and its Zipf samplers) instead of four.
type generatorState struct {
	rng     *rand.Rand
	zipfs   []*rand.Zipf
	cursors []int64
}

// Generate produces the profile's trace: one ReadChunk over an
// exactly-sized whole-trace buffer, so the materialized and streamed
// (NewGenerator) paths yield identical sequences by construction.
// Generation allocates nothing per access.
func Generate(p Profile, opts Options) (*trace.Trace, error) {
	g, err := NewGenerator(p, opts)
	if err != nil {
		return nil, err
	}
	meta := g.Meta()
	accs := make([]trace.Access, meta.Accesses)
	n, err := g.ReadChunk(accs)
	if err != nil {
		return nil, err
	}
	if int64(n) != meta.Accesses {
		return nil, fmt.Errorf("workload %s: generated %d of %d accesses", p.Name, n, meta.Accesses)
	}
	tr := &trace.Trace{
		Name:       meta.Name,
		Threads:    meta.Threads,
		Accesses:   accs,
		InstrCount: meta.InstrCount,
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// pickComponent samples an index by cumulative weight.
func pickComponent(rng *rand.Rand, cum []float64, sum float64) int {
	x := rng.Float64() * sum
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// componentBase lays out regions so components and thread partitions never
// overlap. Shared components ignore the thread partition.
func componentBase(name string, component, thread int, shared bool) uint64 {
	base := (uint64(hashName(name)&0xff) << 52) | uint64(component+1)<<componentShift
	if !shared {
		base |= uint64(thread) << threadShift
	}
	return base
}

// hashName gives a stable per-workload seed/address salt.
func hashName(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffff)
}
