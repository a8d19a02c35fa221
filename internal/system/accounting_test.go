package system

import (
	"context"
	"math"
	"testing"

	"nvmllc/internal/nvsim"
	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
)

// TestIPCUsesConfiguredClock: IPC must be computed against the run's
// configured core frequency, not the hardcoded 2.66 GHz Gainestown
// clock.
func TestIPCUsesConfiguredClock(t *testing.T) {
	tr := randomTrace(3, 20000, 1, 30000)
	cfg := sramConfig()
	cfg.Core.ClockGHz = 1.33
	cfg.L2LatencyNS = 6.0 // keep the 8-cycle L2 at the slower clock
	r, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.ClockGHz != 1.33 {
		t.Fatalf("Result.ClockGHz = %g, want the configured 1.33", r.ClockGHz)
	}
	want := float64(r.Instructions) / (r.TimeNS * 1.33)
	if got := r.IPC(); math.Abs(got-want) > 1e-12 {
		t.Errorf("IPC = %g, want %g at 1.33 GHz", got, want)
	}
	gainestown := float64(r.Instructions) / (r.TimeNS * 2.66)
	if got := r.IPC(); math.Abs(got-gainestown) < 1e-12 {
		t.Errorf("IPC = %g still uses the hardcoded 2.66 GHz clock", got)
	}
}

// TestHybridInterventionChargesLatency: a coherence cache-to-cache
// transfer in hybrid mode must stall the reader by the hybrid LLC's
// lookup latency. The historical code charged Config.LLC's latencies,
// which are documented as ignored (zero-valued) in hybrid mode, so
// multithreaded hybrid runs got free interventions.
func TestHybridInterventionChargesLatency(t *testing.T) {
	nvmModel, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(nvsim.LLCModel{})
	cfg.Hybrid = &HybridConfig{SRAM: reference.SRAMBaseline(), NVM: nvmModel, SRAMWays: 4}
	tr := &trace.Trace{
		Name: "intervene", Threads: 2, InstrCount: 2,
		Accesses: []trace.Access{
			{Addr: 0x10040, Kind: trace.Write, Tid: 0},
			{Addr: 0x10040, Kind: trace.Read, Tid: 1},
		},
	}
	sim, err := newSimulator([]Config{cfg}, trace.Meta{Threads: tr.Threads, Accesses: int64(len(tr.Accesses))}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	line := uint64(0x10040) >> sim.blockBits
	// Core 0 holds the line dirty in its L1D.
	sim.cores[0].l1d.Access(line, true)
	sim.dir.sharers.FetchOr(line, 1<<0)

	reader := sim.cores[1]
	before := reader.core.TimeNS()
	sim.tims[0].at = before
	sim.downgradeOthers(reader, line)
	if sim.dir.stats.InterventionStalls != 1 {
		t.Fatalf("InterventionStalls = %d, want 1", sim.dir.stats.InterventionStalls)
	}
	stall := reader.core.TimeNS() - before
	if stall <= 0 {
		t.Fatal("hybrid intervention charged no latency (free cache-to-cache transfer)")
	}
	if at := sim.tims[0].at; at != reader.core.TimeNS() {
		t.Errorf("downgradeOthers left the access at stale time %g, core is at %g", at, reader.core.TimeNS())
	}
	// The flushed line lands in the SRAM partition, so the transfer must
	// cost the SRAM tag+read latency through the MLP overlap factor.
	want := (cfg.Hybrid.SRAM.TagLatencyNS + cfg.Hybrid.SRAM.ReadLatencyNS) / cfg.Core.EffectiveMLP()
	if math.Abs(stall-want) > 1e-9 {
		t.Errorf("intervention stall = %g ns, want %g (SRAM partition read / MLP)", stall, want)
	}
}

// TestHybridCoherenceEndToEnd is the full-run regression for the same
// bug: a write-shared multithreaded hybrid run must report intervention
// stalls and nonzero memory stall time attributable to them.
func TestHybridCoherenceEndToEnd(t *testing.T) {
	nvmModel, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(disableCoherence bool) *Result {
		cfg := Gainestown(nvsim.LLCModel{})
		cfg.Hybrid = &HybridConfig{SRAM: reference.SRAMBaseline(), NVM: nvmModel, SRAMWays: 4}
		cfg.DisableCoherence = disableCoherence
		// Two threads ping-ponging over a tiny shared footprint: thread 0
		// writes a line, thread 1 reads it back, so reads keep finding the
		// other core's dirty copy.
		accs := make([]trace.Access, 0, 20000)
		for i := 0; i < 10000; i++ {
			addr := uint64(i%8) * 64
			accs = append(accs,
				trace.Access{Addr: addr, Kind: trace.Write, Tid: 0},
				trace.Access{Addr: addr, Kind: trace.Read, Tid: 1})
		}
		tr := &trace.Trace{Name: "pingpong", Threads: 2, Accesses: accs, InstrCount: uint64(len(accs)) * 2}
		r, err := Run(context.Background(), cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := mk(false)
	if r.Directory.InterventionStalls == 0 {
		t.Fatal("write-shared hybrid run produced no interventions")
	}
	if r.MemStallNS <= 0 {
		t.Error("hybrid coherent run has zero memory stall time")
	}
	// With interventions now priced, the coherent run cannot be faster
	// than the incoherent one on this transfer-dominated trace.
	if rNo := mk(true); r.TimeNS <= rNo.TimeNS {
		t.Errorf("coherent hybrid run (%.1f ns) not slower than coherence-off (%.1f ns) despite %d interventions",
			r.TimeNS, rNo.TimeNS, r.Directory.InterventionStalls)
	}
}
