package system

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
)

// streamTrace builds a sequential read stream touching `lines` distinct
// cache lines repeatedly.
func streamTrace(name string, lines, accesses int, writeEvery int, threads int) *trace.Trace {
	tr := &trace.Trace{Name: name, Threads: threads}
	for i := 0; i < accesses; i++ {
		kind := trace.Read
		if writeEvery > 0 && i%writeEvery == 0 {
			kind = trace.Write
		}
		tr.Accesses = append(tr.Accesses, trace.Access{
			Addr: uint64(i%lines) * 64,
			Kind: kind,
			Tid:  uint8(i % threads),
		})
	}
	tr.InstrCount = uint64(accesses) * 4
	return tr
}

func sramConfig() Config {
	return Gainestown(reference.SRAMBaseline())
}

// runWith is Run reusing the caller's Scratch.
func runWith(ctx context.Context, cfg Config, tr *trace.Trace, scratch *Scratch) (*Result, error) {
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		return nil, err
	}
	return RunStreamWith(ctx, cfg, src, scratch)
}

func TestRunSmallTrace(t *testing.T) {
	tr := streamTrace("small", 100, 10000, 5, 1)
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != tr.InstrCount {
		t.Errorf("instructions = %d, want %d", r.Instructions, tr.InstrCount)
	}
	if r.TimeNS <= 0 {
		t.Error("non-positive execution time")
	}
	if r.LLCEnergyJ() <= 0 {
		t.Error("non-positive LLC energy")
	}
	if r.Workload != "small" || r.LLCName != "SRAM" {
		t.Errorf("labels = %q/%q", r.Workload, r.LLCName)
	}
}

func TestValidationErrors(t *testing.T) {
	tr := streamTrace("v", 10, 100, 0, 1)
	cfg := sramConfig()
	cfg.Cores = 0
	if _, err := Run(context.Background(), cfg, tr); err == nil {
		t.Error("accepted zero cores")
	}
	cfg = sramConfig()
	cfg.LLCBanks = 0
	if _, err := Run(context.Background(), cfg, tr); err == nil {
		t.Error("accepted zero banks")
	}
	// More threads than cores.
	tr8 := streamTrace("v8", 10, 100, 0, 8)
	cfg = sramConfig() // 4 cores
	if _, err := Run(context.Background(), cfg, tr8); err == nil {
		t.Error("accepted 8 threads on 4 cores")
	}
	// Invalid trace.
	bad := &trace.Trace{Name: "", Threads: 1}
	if _, err := Run(context.Background(), sramConfig(), bad); err == nil {
		t.Error("accepted invalid trace")
	}
}

func TestCacheFittingWorkloadHitsLLCRarely(t *testing.T) {
	// 100 lines fit in L1 (512 lines): after warmup everything hits L1,
	// so the LLC sees only cold traffic.
	tr := streamTrace("fits-l1", 100, 50000, 0, 1)
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.LLC.Accesses() > 200 {
		t.Errorf("LLC accesses = %d, want ≈100 cold misses", r.LLC.Accesses())
	}
	if r.L1D.MissRate() > 0.01 {
		t.Errorf("L1D miss rate = %g, want ≈0", r.L1D.MissRate())
	}
}

func TestLLCCapacityEffect(t *testing.T) {
	// A working set of 8MB misses hard in a 2MB LLC but fits a 32MB one.
	lines := (8 << 20) / 64
	tr := streamTrace("ws8mb", lines, 4*lines, 0, 1)

	small, err := Run(context.Background(), Gainestown(reference.SRAMBaseline()), tr)
	if err != nil {
		t.Fatal(err)
	}
	hay, err := reference.ModelByName(reference.FixedAreaModels(), "Hayakawa_R")
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(context.Background(), Gainestown(hay), tr)
	if err != nil {
		t.Fatal(err)
	}
	if big.LLC.Misses >= small.LLC.Misses {
		t.Errorf("32MB LLC misses %d not below 2MB %d", big.LLC.Misses, small.LLC.Misses)
	}
	if big.TimeNS >= small.TimeNS {
		t.Errorf("32MB LLC time %g not below 2MB %g", big.TimeNS, small.TimeNS)
	}
}

func TestWritesOffCriticalPath(t *testing.T) {
	// With contention off (the paper's assumption), Kang_P's 301ns writes
	// must not slow the system much relative to SRAM on a write-heavy
	// working set that thrashes the LLC.
	lines := (4 << 20) / 64
	tr := streamTrace("writeheavy", lines, 2*lines, 2, 1)

	sram, err := Run(context.Background(), Gainestown(reference.SRAMBaseline()), tr)
	if err != nil {
		t.Fatal(err)
	}
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	kr, err := Run(context.Background(), Gainestown(kang), tr)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := kr.TimeNS / sram.TimeNS
	if slowdown > 1.10 {
		t.Errorf("Kang_P slowdown = %.3f with writes off critical path, want ≤ 1.10", slowdown)
	}
	// But its write energy must be catastrophic (the paper's key result).
	if kr.LLCDynamicJ < 10*sram.LLCDynamicJ {
		t.Errorf("Kang_P dynamic energy %g not ≫ SRAM %g", kr.LLCDynamicJ, sram.LLCDynamicJ)
	}
}

func TestWriteContentionAblation(t *testing.T) {
	// Turning contention on must slow a write-heavy workload on a slow-
	// write technology — the effect the paper says its simulator hides.
	lines := (4 << 20) / 64
	tr := streamTrace("ablate", lines, 2*lines, 2, 1)
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(context.Background(), Gainestown(kang), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(kang)
	cfg.ModelWriteContention = true
	on, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if on.TimeNS <= off.TimeNS*1.2 {
		t.Errorf("write contention on: %g ns vs off: %g ns; expected ≥20%% slowdown", on.TimeNS, off.TimeNS)
	}
}

func TestLeakageDominatesForSRAMOnLongRuns(t *testing.T) {
	tr := streamTrace("leak", 1000, 100000, 0, 1)
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.LLCLeakageJ <= r.LLCDynamicJ {
		t.Errorf("SRAM leakage %g should dominate dynamic %g on an LLC-quiet run", r.LLCLeakageJ, r.LLCDynamicJ)
	}
}

func TestEnergyAccountingAdditive(t *testing.T) {
	tr := streamTrace("energy", 100000, 200000, 3, 1)
	kang, _ := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	r, err := Run(context.Background(), Gainestown(kang), tr)
	if err != nil {
		t.Fatal(err)
	}
	m := kang
	wantDyn := (float64(r.LLC.Hits)*m.HitEnergyNJ +
		float64(r.LLC.Misses)*m.MissEnergyNJ +
		float64(r.LLC.Writes)*m.WriteEnergyNJ) * 1e-9
	if math.Abs(wantDyn-r.LLCDynamicJ) > 1e-12+1e-9*wantDyn {
		t.Errorf("dynamic energy %g != recomputed %g", r.LLCDynamicJ, wantDyn)
	}
	wantLeak := m.LeakageW * r.TimeNS * 1e-9
	if math.Abs(wantLeak-r.LLCLeakageJ) > 1e-12+1e-9*wantLeak {
		t.Errorf("leakage energy %g != recomputed %g", r.LLCLeakageJ, wantLeak)
	}
	if r.LLCEnergyJ() != r.LLCDynamicJ+r.LLCLeakageJ {
		t.Error("total energy not additive")
	}
	if r.ED2P() != r.LLCEnergyJ()*r.Seconds()*r.Seconds() {
		t.Error("ED2P inconsistent")
	}
	if r.EDP() != r.LLCEnergyJ()*r.Seconds() {
		t.Error("EDP inconsistent")
	}
}

func TestMultiThreadedSharesLLC(t *testing.T) {
	// 4 threads × disjoint 1MB working sets = 4MB total: thrashes a 2MB
	// LLC; each thread alone fits.
	mk := func(threads int) *trace.Trace {
		tr := &trace.Trace{Name: "mt", Threads: threads}
		perLines := (1 << 20) / 64
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 400000; i++ {
			tid := i % threads
			line := rng.Intn(perLines)
			addr := uint64(tid)<<30 + uint64(line)*64
			tr.Accesses = append(tr.Accesses, trace.Access{Addr: addr, Kind: trace.Read, Tid: uint8(tid)})
		}
		tr.InstrCount = uint64(len(tr.Accesses)) * 4
		return tr
	}
	one, err := Run(context.Background(), sramConfig(), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(context.Background(), sramConfig(), mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if four.LLC.Misses <= one.LLC.Misses {
		t.Errorf("4-thread LLC misses %d not above 1-thread %d (no capacity pressure)", four.LLC.Misses, one.LLC.Misses)
	}
}

func TestMultiCoreSpeedsUpParallelWork(t *testing.T) {
	// The same total work split over 4 threads should finish much faster
	// than on one core.
	mk := func(threads int) *trace.Trace {
		tr := &trace.Trace{Name: "scale", Threads: threads}
		for i := 0; i < 100000; i++ {
			tr.Accesses = append(tr.Accesses, trace.Access{
				Addr: uint64(i) * 64,
				Kind: trace.Read,
				Tid:  uint8(i % threads),
			})
		}
		tr.InstrCount = uint64(len(tr.Accesses)) * 4
		return tr
	}
	one, err := Run(context.Background(), sramConfig(), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(context.Background(), sramConfig(), mk(4))
	if err != nil {
		t.Fatal(err)
	}
	speedup := one.TimeNS / four.TimeNS
	if speedup < 2 {
		t.Errorf("4-core speedup = %.2f, want ≥ 2", speedup)
	}
}

func TestLLCWriteCountsFillsAndWritebacks(t *testing.T) {
	// Read-only thrashing working set: every LLC miss produces a fill
	// (write); no writebacks since nothing is dirty.
	lines := (4 << 20) / 64
	tr := streamTrace("fills", lines, lines, 0, 1)
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.LLC.Writes != r.LLC.Misses {
		t.Errorf("read-only: LLC writes %d != misses %d", r.LLC.Writes, r.LLC.Misses)
	}
	// With stores, writebacks add to the count.
	trw := streamTrace("fills+wb", lines, 4*lines, 2, 1)
	rw, err := Run(context.Background(), sramConfig(), trw)
	if err != nil {
		t.Fatal(err)
	}
	if rw.LLC.Writes <= rw.LLC.Misses {
		t.Errorf("write-heavy: LLC writes %d should exceed misses %d (writebacks)", rw.LLC.Writes, rw.LLC.Misses)
	}
}

func TestMPKIReported(t *testing.T) {
	lines := (8 << 20) / 64
	tr := streamTrace("mpki", lines, lines, 0, 1)
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Every access cold-misses: 1 miss per 4 instructions = 250 MPKI.
	if math.Abs(r.LLCMPKI()-250) > 10 {
		t.Errorf("MPKI = %g, want ≈250", r.LLCMPKI())
	}
}

func TestIfetchGoesThroughL1I(t *testing.T) {
	tr := &trace.Trace{Name: "ifetch", Threads: 1}
	for i := 0; i < 10000; i++ {
		tr.Accesses = append(tr.Accesses, trace.Access{Addr: uint64(i%64) * 64, Kind: trace.Ifetch})
	}
	tr.InstrCount = uint64(len(tr.Accesses))
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.L1I.Accesses() != 10000 {
		t.Errorf("L1I accesses = %d, want 10000", r.L1I.Accesses())
	}
	if r.L1D.Accesses() != 0 {
		t.Errorf("L1D accesses = %d, want 0", r.L1D.Accesses())
	}
}

func TestDeterminism(t *testing.T) {
	tr := streamTrace("det", 5000, 50000, 7, 2)
	a, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeNS != b.TimeNS || a.LLC != b.LLC || a.LLCDynamicJ != b.LLCDynamicJ {
		t.Error("simulation is not deterministic")
	}
}

func TestWithCores(t *testing.T) {
	cfg := sramConfig().WithCores(16)
	if cfg.Cores != 16 {
		t.Errorf("WithCores = %d", cfg.Cores)
	}
}
