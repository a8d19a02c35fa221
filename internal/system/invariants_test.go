package system

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// randomTrace builds an arbitrary but valid trace from fuzz inputs.
func randomTrace(seed int64, n int, threads int, footprintLines int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "fuzz", Threads: threads}
	for i := 0; i < n; i++ {
		tr.Accesses = append(tr.Accesses, trace.Access{
			Addr: uint64(rng.Intn(footprintLines)) * 64,
			Kind: trace.Kind(rng.Intn(3)),
			Tid:  uint8(rng.Intn(threads)),
		})
	}
	tr.InstrCount = uint64(n) * 3
	return tr
}

// TestHierarchyConservationProperty holds the simulated hierarchy to the
// cross-level flow laws (checkConservation) on random traces.
func TestHierarchyConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw, tRaw, fRaw uint16) bool {
		n := int(nRaw%20000) + 1000
		threads := int(tRaw%4) + 1
		footprint := int(fRaw)*4 + 64
		tr := randomTrace(seed, n, threads, footprint)
		r, err := Run(context.Background(), sramConfig(), tr)
		if err != nil {
			return false
		}
		broken := checkConservation(r, true)
		for _, msg := range broken {
			t.Log(msg)
		}
		return len(broken) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// checkConservation reports every cross-level flow law r breaks:
//
//   - L2 demand accesses = L1I misses + L1D misses (every L1 miss goes to
//     the L2 exactly once);
//   - LLC demand accesses = L2 misses, with bypassed fills among the LLC
//     misses (a bypassed fill still probes the tags and counts as a
//     miss, so adding BypassedFills to the accesses would count it
//     twice);
//   - with the default DRAM model, every LLC demand miss reads DRAM
//     exactly once (coherence and writeback evictions add DRAM writes,
//     never reads).
func checkConservation(r *Result, defaultDRAM bool) []string {
	var broken []string
	if r.L2.Accesses() != r.L1I.Misses+r.L1D.Misses {
		broken = append(broken, fmt.Sprintf("L2 accesses %d != L1 misses %d+%d", r.L2.Accesses(), r.L1I.Misses, r.L1D.Misses))
	}
	if r.LLC.Accesses() != r.L2.Misses || r.LLC.BypassedFills > r.LLC.Misses {
		broken = append(broken, fmt.Sprintf("LLC accesses %d (bypassed fills %d of %d misses) != L2 misses %d",
			r.LLC.Accesses(), r.LLC.BypassedFills, r.LLC.Misses, r.L2.Misses))
	}
	if defaultDRAM && r.DRAM.Reads != r.LLC.Misses {
		broken = append(broken, fmt.Sprintf("DRAM reads %d != LLC misses %d", r.DRAM.Reads, r.LLC.Misses))
	}
	return broken
}

// TestGoldenMatrixConservation holds every case of the golden Result
// matrix — each machine variant at 1–16 threads, faults, pre-wear,
// timelines and the NVM main memory — to the conservation laws.
func TestGoldenMatrixConservation(t *testing.T) {
	for _, gc := range goldenCases(t) {
		cfg := gc.cfg()
		r, err := Run(context.Background(), cfg, gc.generate(t))
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for _, msg := range checkConservation(r, cfg.Memory == nil) {
			t.Errorf("%s: %s", gc.name, msg)
		}
	}
}

// TestLLCWritesDecomposition: LLC writes = fills (one per miss) plus L2
// dirty writebacks plus coherence flushes — never more than misses +
// total L2 writebacks + remote flushes.
func TestLLCWritesDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 15000, 2, 30000)
		r, err := Run(context.Background(), sramConfig(), tr)
		if err != nil {
			return false
		}
		upper := r.LLC.Misses + r.L2.Writebacks + r.Directory.RemoteWritebacks + r.L1D.Writebacks
		return r.LLC.Writes >= r.LLC.Misses && r.LLC.Writes <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTimeMonotoneInLLCReadLatency: slower LLC reads can never make the
// system faster, everything else equal.
func TestTimeMonotoneInLLCReadLatency(t *testing.T) {
	tr := randomTrace(5, 30000, 1, 60000)
	base := reference.SRAMBaseline()
	prev := 0.0
	for _, lat := range []float64{1, 5, 20, 80} {
		m := base
		m.ReadLatencyNS = lat
		r, err := Run(context.Background(), Gainestown(m), tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.TimeNS < prev {
			t.Errorf("read latency %g ns made the system faster: %g < %g", lat, r.TimeNS, prev)
		}
		prev = r.TimeNS
	}
}

// TestEnergyMonotoneInLeakage: more leakage can never reduce total LLC
// energy.
func TestEnergyMonotoneInLeakage(t *testing.T) {
	tr := randomTrace(7, 20000, 1, 20000)
	base := reference.SRAMBaseline()
	prev := 0.0
	for _, leak := range []float64{0.01, 0.5, 3.4, 10} {
		m := base
		m.LeakageW = leak
		r, err := Run(context.Background(), Gainestown(m), tr)
		if err != nil {
			t.Fatal(err)
		}
		if e := r.LLCEnergyJ(); e < prev {
			t.Errorf("leakage %g W reduced energy: %g < %g", leak, e, prev)
		} else {
			prev = e
		}
	}
}

// TestBiggerLLCNeverMoreMisses: on any trace, growing the LLC (same
// associativity scaling) must not increase demand misses.
func TestBiggerLLCNeverMoreMisses(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 25000, 1, 80000)
		small := reference.SRAMBaseline() // 2MB
		big := small
		big.CapacityBytes = 8 << 20
		rs, err := Run(context.Background(), Gainestown(small), tr)
		if err != nil {
			return false
		}
		rb, err := Run(context.Background(), Gainestown(big), tr)
		if err != nil {
			return false
		}
		// LRU with nested capacities at the same associativity is not
		// strictly an inclusion hierarchy (set hashing differs), so allow
		// a 2% tolerance.
		return float64(rb.LLC.Misses) <= 1.02*float64(rs.LLC.Misses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestInstructionsSumExactlyPrimeThreads: retired instructions must sum
// exactly to the trace's InstrCount for every thread count — prime
// thread counts against a non-divisible instruction count historically
// dropped the InstrCount % Threads remainder of the integer per-thread
// split.
func TestInstructionsSumExactlyPrimeThreads(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 5, 7, 11, 13} {
		tr := randomTrace(int64(threads), 6000, threads, 4096)
		tr.InstrCount = 6000*3 + 29 // 18029, prime: never divisible by threads > 1
		cfg := sramConfig().WithCores(threads)
		r, err := Run(context.Background(), cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Instructions != tr.InstrCount {
			t.Errorf("%d threads: retired %d instructions, want exactly %d (dropped %d)",
				threads, r.Instructions, tr.InstrCount, tr.InstrCount-r.Instructions)
		}
	}
}

// TestSweepDeterministicAcrossParallelism: the concurrent harness must
// produce identical results regardless of worker count.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	p, err := workload.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(p, workload.Options{Accesses: 30000})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeNS != b.TimeNS || a.LLC != b.LLC || a.Directory != b.Directory {
		t.Error("repeat run differs")
	}
}
