package endurance

import (
	"math"
	"testing"

	"nvmllc/internal/nvm"
	"nvmllc/internal/system"
)

func TestWriteEnduranceByClass(t *testing.T) {
	// Table I ordering: PCRAM ≪ RRAM ≪ STTRAM ≪ SRAM (no wear).
	p, r, s := WriteEndurance(nvm.PCRAM), WriteEndurance(nvm.RRAM), WriteEndurance(nvm.STTRAM)
	if !(p < r && r < s) {
		t.Errorf("endurance ordering broken: %g, %g, %g", p, r, s)
	}
	if p < 1e7 || p > 1e8 {
		t.Errorf("PCRAM endurance %g outside the paper's 10^7-10^8", p)
	}
	if r != 1e10 {
		t.Errorf("RRAM endurance = %g, want 1e10", r)
	}
	if !math.IsInf(WriteEndurance(nvm.SRAM), 1) {
		t.Error("SRAM should not wear")
	}
}

func wearResult(maxLine, maxSet uint64, secs float64) *system.Result {
	return &system.Result{
		Workload: "w", LLCName: "Kang_P",
		TimeNS: secs * 1e9,
		Wear: &system.WearStats{
			TotalWrites:   maxSet * 2,
			LinesTouched:  100,
			MaxLineWrites: maxLine,
			MaxSetWrites:  maxSet,
			Ways:          16,
			Sets:          2048,
		},
	}
}

func TestEstimate(t *testing.T) {
	// 3000 writes to the hottest line in 1 ms = 3e6 writes/s.
	// PCRAM endurance 3e7 → dies in 10 seconds raw.
	r := wearResult(3000, 4800, 1e-3)
	e, err := Estimate(r, Options{Class: nvm.PCRAM})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.HottestLineWritesPerSec-3e6) > 1 {
		t.Errorf("raw rate = %g, want 3e6", e.HottestLineWritesPerSec)
	}
	wantYears := 3e7 / 3e6 / SecondsPerYear
	if math.Abs(e.RawYears-wantYears)/wantYears > 1e-9 {
		t.Errorf("raw years = %g, want %g", e.RawYears, wantYears)
	}
	// Leveled: 4800/16 = 300 writes → 10× the lifetime.
	if math.Abs(e.LeveledYears/e.RawYears-10) > 1e-9 {
		t.Errorf("leveling gain = %g, want 10", e.LeveledYears/e.RawYears)
	}
	if math.Abs(e.ImbalanceFactor-10) > 1e-9 {
		t.Errorf("imbalance = %g, want 10", e.ImbalanceFactor)
	}
	if e.Viable(5) {
		t.Error("a 10-second lifetime should not be viable")
	}
}

func TestEstimateSTTRAMOutlivesPCRAM(t *testing.T) {
	r := wearResult(1000, 1600, 1e-3)
	pc, err := Estimate(r, Options{Class: nvm.PCRAM})
	if err != nil {
		t.Fatal(err)
	}
	stt, err := Estimate(r, Options{Class: nvm.STTRAM})
	if err != nil {
		t.Fatal(err)
	}
	if stt.RawYears <= pc.RawYears {
		t.Errorf("STTRAM lifetime %g not above PCRAM %g", stt.RawYears, pc.RawYears)
	}
	sram, err := Estimate(r, Options{Class: nvm.SRAM})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sram.RawYears, 1) {
		t.Errorf("SRAM lifetime = %g, want +Inf", sram.RawYears)
	}
	if !sram.Viable(100) {
		t.Error("SRAM should be viable forever")
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(&system.Result{TimeNS: 1}, Options{Class: nvm.PCRAM}); err == nil {
		t.Error("missing wear accepted")
	}
	r := wearResult(1, 1, 0)
	if _, err := Estimate(r, Options{Class: nvm.PCRAM}); err == nil {
		t.Error("zero-time result accepted")
	}
}

func TestIdleCacheLivesForever(t *testing.T) {
	r := wearResult(0, 0, 1e-3)
	e, err := Estimate(r, Options{Class: nvm.RRAM})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(e.RawYears, 1) {
		t.Errorf("idle lifetime = %g, want +Inf", e.RawYears)
	}
}
