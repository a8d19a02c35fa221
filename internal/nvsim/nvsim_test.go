package nvsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nvmllc/internal/nvm"
)

// gainestownOrg returns the paper's LLC organization for the given cell,
// with the SRAM baseline pinned to 45nm.
func gainestownOrg(c *nvm.Cell) Org {
	org := GainestownLLC()
	if c.Class == nvm.SRAM {
		org.ProcessNM = 45
	}
	return org
}

func TestGenerateAllCorpusCells(t *testing.T) {
	for _, c := range nvm.CorpusWithSRAM() {
		m, err := Generate(c, gainestownOrg(c))
		if err != nil {
			t.Errorf("Generate(%s): %v", c.Name, err)
			continue
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if m.Name != c.DisplayName() {
			t.Errorf("model name %q, want %q", m.Name, c.DisplayName())
		}
	}
}

func TestGenerateRejectsIncompleteCell(t *testing.T) {
	c := &nvm.Cell{Name: "hollow", Class: nvm.STTRAM, CellLevels: 1, ProcessNM: nvm.Rep(45)}
	if _, err := Generate(c, GainestownLLC()); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("Generate(incomplete) = %v, want incomplete error", err)
	}
}

func TestGenerateRejectsBadOrg(t *testing.T) {
	bad := []Org{
		{CapacityBytes: 0, BlockBytes: 64, Ways: 16},
		{CapacityBytes: 2 << 20, BlockBytes: 60, Ways: 16},
		{CapacityBytes: 2 << 20, BlockBytes: 64, Ways: 0},
		{CapacityBytes: 1000, BlockBytes: 64, Ways: 16},
	}
	for i, org := range bad {
		if _, err := Generate(nvm.Zhang(), org); err == nil {
			t.Errorf("case %d: Generate accepted invalid org %+v", i, org)
		}
	}
}

// relErr is the symmetric relative error between model and paper values.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(got), math.Abs(want))
}

func TestGenerateApproximatesTableIII(t *testing.T) {
	// Published Table III fixed-capacity values. The analytical model is a
	// calibrated NVSim substitute, so tolerances are generous and two
	// known outliers are documented in EXPERIMENTS.md: Chen_P's area
	// (NVSim's organization choice for its tiny 10F² cell at 60nm differs
	// from our fixed mat layout) and Jan_S's leakage (a device
	// specifically engineered for low leakage, below our class model).
	cases := []struct {
		cell     *nvm.Cell
		area     float64
		writeMax float64
		eWrite   float64
		leak     float64
		areaTol  float64
		leakTol  float64
	}{
		{nvm.Oh(), 6.847, 181.206, 225.413, 0.062, 0.35, 0.45},
		{nvm.Kang(), 4.591, 301.018, 375.073, 0.061, 0.35, 0.45},
		{nvm.Close(), 2.855, 20.681, 51.116, 0.039, 0.35, 0.45},
		{nvm.Chung(), 1.452, 11.751, 1.332, 0.166, 0.35, 0.45},
		{nvm.Jan(), 9.171, 7.878, 2.305, 0.048, 0.35, 0.75},
		{nvm.Umeki(), 4.348, 11.916, 1.644, 0.295, 0.35, 0.45},
		{nvm.Xue(), 1.585, 4.038, 0.597, 0.115, 0.35, 0.45},
		{nvm.Hayakawa(), 0.915, 20.716, 0.952, 0.194, 0.35, 0.45},
		{nvm.Zhang(), 0.307, 300.834, 0.523, 0.151, 0.35, 0.45},
		{nvm.SRAMCell(), 6.548, 0.515, 0.537, 3.438, 0.10, 0.10},
	}
	for _, tc := range cases {
		m, err := Generate(tc.cell, gainestownOrg(tc.cell))
		if err != nil {
			t.Fatalf("Generate(%s): %v", tc.cell.Name, err)
		}
		if e := relErr(m.AreaMM2, tc.area); e > tc.areaTol {
			t.Errorf("%s area = %.3f, paper %.3f (err %.0f%% > %.0f%%)", m.Name, m.AreaMM2, tc.area, e*100, tc.areaTol*100)
		}
		// Write latency is pulse-dominated, so should track closely.
		if e := relErr(m.WriteLatencyNS(), tc.writeMax); e > 0.15 {
			t.Errorf("%s write latency = %.3f, paper %.3f (err %.0f%%)", m.Name, m.WriteLatencyNS(), tc.writeMax, e*100)
		}
		if e := relErr(m.WriteEnergyNJ, tc.eWrite); e > 0.35 {
			t.Errorf("%s write energy = %.3f, paper %.3f (err %.0f%%)", m.Name, m.WriteEnergyNJ, tc.eWrite, e*100)
		}
		if e := relErr(m.LeakageW, tc.leak); e > tc.leakTol {
			t.Errorf("%s leakage = %.3f, paper %.3f (err %.0f%%)", m.Name, m.LeakageW, tc.leak, e*100)
		}
	}
}

func TestPCRAMSetResetAsymmetry(t *testing.T) {
	m, err := Generate(nvm.Oh(), GainestownLLC())
	if err != nil {
		t.Fatal(err)
	}
	// Oh: 180ns set vs 10ns reset pulses must surface as asymmetric write
	// latencies (Table III reports 181.206/11.206).
	if m.WriteSetNS <= m.WriteResetNS {
		t.Errorf("Oh set %g should exceed reset %g", m.WriteSetNS, m.WriteResetNS)
	}
	if diff := m.WriteSetNS - m.WriteResetNS; math.Abs(diff-170) > 1 {
		t.Errorf("Oh set-reset gap = %g, want 170 (pulse difference)", diff)
	}
}

func TestRRAMTwoPhaseWrite(t *testing.T) {
	// Zhang: 150ns pulses but ~300ns write latency — RRAM writes are
	// two-phase (RESET then SET), as in Table III.
	m, err := Generate(nvm.Zhang(), GainestownLLC())
	if err != nil {
		t.Fatal(err)
	}
	if m.WriteLatencyNS() < 300 {
		t.Errorf("Zhang write latency = %g, want ≥ 300 (two-phase)", m.WriteLatencyNS())
	}
}

func TestAreaMonotoneInCapacity(t *testing.T) {
	for _, c := range []*nvm.Cell{nvm.Zhang(), nvm.Jan(), nvm.SRAMCell()} {
		prev := 0.0
		for capMB := int64(1); capMB <= 64; capMB *= 2 {
			m, err := Generate(c, gainestownOrg(c).WithCapacity(capMB<<20))
			if err != nil {
				t.Fatal(err)
			}
			if m.AreaMM2 <= prev {
				t.Errorf("%s: area not monotone at %dMB: %g ≤ %g", c.Name, capMB, m.AreaMM2, prev)
			}
			prev = m.AreaMM2
		}
	}
}

func TestLatencyGrowsWithCapacity(t *testing.T) {
	small, err := Generate(nvm.Zhang(), GainestownLLC().WithCapacity(2<<20))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(nvm.Zhang(), GainestownLLC().WithCapacity(128<<20))
	if err != nil {
		t.Fatal(err)
	}
	if big.ReadLatencyNS <= small.ReadLatencyNS {
		t.Errorf("128MB read latency %g not above 2MB %g", big.ReadLatencyNS, small.ReadLatencyNS)
	}
	// Table III: Zhang 2MB reads in 2.16ns, 128MB in 9.54ns — the H-tree
	// should at least triple the latency.
	if big.ReadLatencyNS < 2*small.ReadLatencyNS {
		t.Errorf("H-tree scaling too weak: %g vs %g", big.ReadLatencyNS, small.ReadLatencyNS)
	}
}

func TestMLCDensityAdvantage(t *testing.T) {
	// Xue (2 levels, 63F²) must come out denser than a hypothetical
	// 1-level cell with the same footprint.
	slc := nvm.Xue()
	slc.CellLevels = 1
	mlc, err := Generate(nvm.Xue(), GainestownLLC())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Generate(slc, GainestownLLC())
	if err != nil {
		t.Fatal(err)
	}
	if mlc.AreaMM2 >= single.AreaMM2 {
		t.Errorf("MLC area %g not below SLC area %g", mlc.AreaMM2, single.AreaMM2)
	}
}

func TestFitCapacityToArea(t *testing.T) {
	// The SRAM baseline must fit its own area at 2MB.
	sram, err := FitCapacityToArea(nvm.SRAMCell(), gainestownOrg(nvm.SRAMCell()), 6.55)
	if err != nil {
		t.Fatal(err)
	}
	if sram.CapacityBytes != 2<<20 {
		t.Errorf("SRAM fixed-area capacity = %d, want 2MB", sram.CapacityBytes)
	}
	// Dense RRAM must fit far more than SRAM in the same budget (Table
	// III: Zhang 128MB, Hayakawa 32MB).
	zhang, err := FitCapacityToArea(nvm.Zhang(), GainestownLLC(), 6.55)
	if err != nil {
		t.Fatal(err)
	}
	if zhang.CapacityBytes < 32<<20 {
		t.Errorf("Zhang fixed-area capacity = %dMB, want ≥ 32MB", zhang.CapacityBytes>>20)
	}
	if zhang.AreaMM2 > 6.55 {
		t.Errorf("fitted model area %g exceeds budget", zhang.AreaMM2)
	}
}

func TestFitCapacityToAreaErrors(t *testing.T) {
	if _, err := FitCapacityToArea(nvm.Zhang(), GainestownLLC(), -1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := FitCapacityToArea(nvm.Jan(), GainestownLLC(), 0.001); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestFitCapacityRespectsBudgetProperty(t *testing.T) {
	f := func(budgetTenths uint8) bool {
		budget := 1.0 + float64(budgetTenths%100)/5 // 1.0 .. 20.8 mm²
		m, err := FitCapacityToArea(nvm.Hayakawa(), GainestownLLC(), budget)
		if err != nil {
			return true // tiny budgets may legitimately fail
		}
		if m.AreaMM2 > budget {
			return false
		}
		// Doubling capacity must exceed the budget (maximality).
		bigger, err := Generate(nvm.Hayakawa(), GainestownLLC().WithCapacity(m.CapacityBytes*2))
		if err != nil {
			return false
		}
		return bigger.AreaMM2 > budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestModelValidateCatchesMissBelowHit(t *testing.T) {
	m := LLCModel{
		Name: "bad", CapacityBytes: 1 << 20, AreaMM2: 1,
		TagLatencyNS: 1, ReadLatencyNS: 1, WriteSetNS: 1, WriteResetNS: 1,
		HitEnergyNJ: 0.1, MissEnergyNJ: 0.5, WriteEnergyNJ: 1, LeakageW: 1,
	}
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted miss energy above hit energy")
	}
}

// TestModelValidateReportsFirstBadField: with the area and the leakage
// both invalid, Validate reports the area, the earlier field, every
// time.
func TestModelValidateReportsFirstBadField(t *testing.T) {
	m := LLCModel{
		Name: "bad", CapacityBytes: 1 << 20, AreaMM2: -1,
		TagLatencyNS: 1, ReadLatencyNS: 1, WriteSetNS: 1, WriteResetNS: 1,
		HitEnergyNJ: 1, MissEnergyNJ: 0.5, WriteEnergyNJ: 1, LeakageW: math.NaN(),
	}
	for i := 0; i < 50; i++ {
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), "area") {
			t.Fatalf("call %d: Validate = %v, want the area reported", i, err)
		}
	}
}

// TestModelValidateAllocatesNothing: validating a sound model allocates
// nothing; system.Config.Validate calls it on every llcsimd admission.
func TestModelValidateAllocatesNothing(t *testing.T) {
	m := LLCModel{
		Name: "ok", CapacityBytes: 1 << 20, AreaMM2: 1,
		TagLatencyNS: 1, ReadLatencyNS: 1, WriteSetNS: 1, WriteResetNS: 1,
		HitEnergyNJ: 1, MissEnergyNJ: 0.5, WriteEnergyNJ: 1, LeakageW: 1,
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate allocates %.0f times per call, want 0", allocs)
	}
}

func TestCapacityMB(t *testing.T) {
	m := LLCModel{CapacityBytes: 3 << 20}
	if m.CapacityMB() != 3 {
		t.Errorf("CapacityMB = %g, want 3", m.CapacityMB())
	}
}

func TestEnergyEquationsConsistency(t *testing.T) {
	// Equations (6)-(8): E_miss = E_tag, and hit/write = tag + data parts,
	// so E_hit > E_miss and E_write > E_miss for every technology.
	for _, c := range nvm.CorpusWithSRAM() {
		m, err := Generate(c, gainestownOrg(c))
		if err != nil {
			t.Fatal(err)
		}
		if m.HitEnergyNJ <= m.MissEnergyNJ {
			t.Errorf("%s: E_hit %g ≤ E_miss %g", m.Name, m.HitEnergyNJ, m.MissEnergyNJ)
		}
		if m.WriteEnergyNJ <= m.MissEnergyNJ {
			t.Errorf("%s: E_write %g ≤ E_miss %g", m.Name, m.WriteEnergyNJ, m.MissEnergyNJ)
		}
	}
}

func TestWriteEnergyAsymmetryAcrossClasses(t *testing.T) {
	// STTRAM writes cost several× reads (paper: order of magnitude at the
	// cell level); PCRAM writes are catastrophically expensive.
	chung, err := Generate(nvm.Chung(), GainestownLLC())
	if err != nil {
		t.Fatal(err)
	}
	if chung.WriteEnergyNJ < 2*chung.HitEnergyNJ {
		t.Errorf("Chung write %g not ≫ hit %g", chung.WriteEnergyNJ, chung.HitEnergyNJ)
	}
	kang, err := Generate(nvm.Kang(), GainestownLLC())
	if err != nil {
		t.Fatal(err)
	}
	if kang.WriteEnergyNJ < 100*kang.HitEnergyNJ {
		t.Errorf("Kang write %g not two orders above hit %g", kang.WriteEnergyNJ, kang.HitEnergyNJ)
	}
}
