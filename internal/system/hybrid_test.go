package system

import (
	"context"
	"testing"

	"nvmllc/internal/reference"
)

// hybridConfig builds a 4-SRAM + 12-NVM way hybrid from the SRAM baseline
// and Kang_P (the worst-case write-energy NVM).
func hybridConfig(t *testing.T, sramWays int) Config {
	t.Helper()
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(kang)
	cfg.Hybrid = &HybridConfig{
		SRAM:     reference.SRAMBaseline(),
		NVM:      kang,
		SRAMWays: sramWays,
	}
	return cfg
}

func TestHybridValidation(t *testing.T) {
	cfg := hybridConfig(t, 4)
	cfg.Hybrid.SRAMWays = 0
	tr := streamTrace("hv", 100, 2000, 3, 1)
	if _, err := Run(context.Background(), cfg, tr); err == nil {
		t.Error("zero SRAM ways accepted")
	}
	cfg.Hybrid.SRAMWays = 16
	if _, err := Run(context.Background(), cfg, tr); err == nil {
		t.Error("all-SRAM hybrid accepted")
	}
	cfg = hybridConfig(t, 4)
	cfg.TrackWear = true
	if _, err := Run(context.Background(), cfg, tr); err == nil {
		t.Error("hybrid + wear tracking accepted")
	}
	cfg = hybridConfig(t, 4)
	cfg.LLCBypass = BypassDeadBlock
	if _, err := Run(context.Background(), cfg, tr); err == nil {
		t.Error("hybrid + bypass accepted")
	}
}

func TestHybridBasicRun(t *testing.T) {
	tr := streamTrace("hybrid", 60000, 200000, 3, 1)
	r, err := Run(context.Background(), hybridConfig(t, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hybrid == nil {
		t.Fatal("no hybrid stats")
	}
	if r.LLCName != "hybrid(SRAM+Kang_P)" {
		t.Errorf("LLC name = %q", r.LLCName)
	}
	h := r.Hybrid
	if h.SRAMHits+h.NVMHits != r.LLC.Hits {
		t.Errorf("partition hits %d+%d != total %d", h.SRAMHits, h.NVMHits, r.LLC.Hits)
	}
	if h.Misses != r.LLC.Misses {
		t.Errorf("hybrid misses %d != LLC misses %d", h.Misses, r.LLC.Misses)
	}
	if h.SRAMWrites == 0 || h.NVMWrites == 0 {
		t.Errorf("partition writes = %d/%d, want both nonzero", h.SRAMWrites, h.NVMWrites)
	}
	if r.LLCEnergyJ() <= 0 {
		t.Error("non-positive hybrid energy")
	}
}

func TestHybridMigratesWriteHotLines(t *testing.T) {
	// A 768KB read/write mix: loads fill the NVM partition, the L2
	// overflow sends repeated writebacks of the same lines, and those
	// write-hot NVM lines must migrate to SRAM.
	tr := streamTrace("hotwrites", 12288, 400000, 2, 1)
	r, err := Run(context.Background(), hybridConfig(t, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hybrid.Migrations == 0 {
		t.Error("no write-hot lines migrated to SRAM")
	}
}

func TestHybridAbsorbsNVMWrites(t *testing.T) {
	// Against a pure Kang_P LLC of the same total capacity-class, the
	// hybrid must divert a meaningful share of writes to SRAM and cut
	// dynamic energy on a write-heavy workload.
	tr := streamTrace("absorb", 8192, 300000, 1, 1)
	kang, _ := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")

	pure, err := Run(context.Background(), Gainestown(kang), tr)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(context.Background(), hybridConfig(t, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	nvmShare := float64(hyb.Hybrid.NVMWrites) / float64(hyb.Hybrid.NVMWrites+hyb.Hybrid.SRAMWrites)
	if nvmShare > 0.6 {
		t.Errorf("NVM still takes %.0f%% of hybrid writes", nvmShare*100)
	}
	if hyb.LLCDynamicJ >= pure.LLCDynamicJ {
		t.Errorf("hybrid dynamic energy %g not below pure Kang_P %g", hyb.LLCDynamicJ, pure.LLCDynamicJ)
	}
}

func TestHybridDemotionsPreserveData(t *testing.T) {
	// SRAM pressure (more write-allocated lines than SRAM ways per set)
	// must demote lines to NVM, not lose them: re-visits after the write
	// burst should hit (SRAM or NVM), not go to DRAM. 1.5MB working set:
	// overflows L2 (so traffic reaches the LLC) and the 2 SRAM ways per
	// set (12 lines/set), but fits the 2MB hybrid.
	tr := streamTrace("demote", 24576, 300000, 1, 1)
	r, err := Run(context.Background(), hybridConfig(t, 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hybrid.Demotions == 0 {
		t.Error("no demotions under SRAM pressure")
	}
	// After warmup the 256KB set fits the hybrid easily: miss rate low.
	missRate := float64(r.LLC.Misses) / float64(r.LLC.Hits+r.LLC.Misses)
	if missRate > 0.25 {
		t.Errorf("hybrid miss rate %.2f, want < 0.25 (lines lost on demotion?)", missRate)
	}
}

func TestHybridLeakageBlend(t *testing.T) {
	kang, _ := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	h := &HybridConfig{SRAM: reference.SRAMBaseline(), NVM: kang, SRAMWays: 4}
	hl, err := newHybridLLC(h, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := reference.SRAMBaseline().LeakageW*0.25 + kang.LeakageW*0.75
	if got := hl.leakageW(); got != want {
		t.Errorf("blended leakage = %g, want %g", got, want)
	}
}
