package sweep

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"nvmllc/internal/reference"
	"nvmllc/internal/workload"
)

// testCfg keeps integration runs fast.
func testCfg() Config {
	return Config{Opts: workload.Options{Accesses: 80000, Seed: 3}}
}

func TestRunFigureRequiresSRAM(t *testing.T) {
	models := reference.NVMModels(reference.FixedCapacityModels())
	if _, err := RunFigure(context.Background(), "x", models, []string{"tonto"}, testCfg()); err == nil {
		t.Error("model set without SRAM accepted")
	}
}

func TestRunFigureUnknownWorkload(t *testing.T) {
	if _, err := RunFigure(context.Background(), "x", reference.FixedCapacityModels(), []string{"quake"}, testCfg()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFigure1aShape(t *testing.T) {
	fig, err := Figure1a(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Workloads) != 11 {
		t.Fatalf("single-threaded workloads = %d, want 11", len(fig.Workloads))
	}
	if len(fig.LLCs) != 10 {
		t.Fatalf("NVM LLCs = %d, want 10", len(fig.LLCs))
	}
	for wi, w := range fig.Workloads {
		for li, llc := range fig.LLCs {
			sp := fig.Speedup[wi][li]
			// Paper Section V-A1: fixed-capacity speedups sit near 1
			// (−1% to −3% typical); allow a slightly wider band.
			if sp < 0.90 || sp > 1.10 {
				t.Errorf("%s/%s: fixed-capacity speedup %.3f outside [0.90,1.10]", w, llc, sp)
			}
			if fig.Energy[wi][li] <= 0 || fig.ED2P[wi][li] <= 0 {
				t.Errorf("%s/%s: non-positive normalized energy/ED2P", w, llc)
			}
		}
	}
}

func TestFigure1aEnergyHeadlines(t *testing.T) {
	fig, err := Figure1a(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: NVM LLC energy is up to 10× less than SRAM in most cases;
	// Kang_P and Oh_P (PCRAM) are the worst cases, well above SRAM on
	// write-heavy workloads like bzip2.
	_, janEn, _, err := fig.Cell("bzip2", "Jan_S")
	if err != nil {
		t.Fatal(err)
	}
	if janEn > 0.3 {
		t.Errorf("Jan_S bzip2 energy = %.3f× SRAM, want ≤ 0.3 (paper: ~0.1)", janEn)
	}
	_, kangEn, _, err := fig.Cell("bzip2", "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	if kangEn < 2 {
		t.Errorf("Kang_P bzip2 energy = %.3f× SRAM, want ≥ 2 (paper: up to 6×)", kangEn)
	}
	// exchange2 exercises the LLC least of the AI trio: even for Kang_P
	// its energy blowup is far milder than deepsjeng's, and the
	// low-leakage Jan_S stays well below SRAM.
	_, exKang, _, err := fig.Cell("exchange2", "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	_, dsKang, _, err := fig.Cell("deepsjeng", "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	if exKang >= dsKang {
		t.Errorf("Kang_P energy: exchange2 %.3f not below deepsjeng %.3f", exKang, dsKang)
	}
	_, exJan, _, err := fig.Cell("exchange2", "Jan_S")
	if err != nil {
		t.Fatal(err)
	}
	if exJan > 0.3 {
		t.Errorf("Jan_S exchange2 energy = %.3f× SRAM, want ≤ 0.3", exJan)
	}
}

func TestFigure1bMultiThreaded(t *testing.T) {
	fig, err := Figure1b(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Workloads) != 9 {
		t.Fatalf("multi-threaded workloads = %d, want 9", len(fig.Workloads))
	}
	// Paper V-A4: multi-threaded fixed-capacity performance is mostly
	// agnostic to LLC technology (within ~10%).
	for wi, w := range fig.Workloads {
		for li, llc := range fig.LLCs {
			if sp := fig.Speedup[wi][li]; sp < 0.85 || sp > 1.15 {
				t.Errorf("%s/%s: speedup %.3f outside [0.85,1.15]", w, llc, sp)
			}
		}
	}
}

func TestFigure2aFixedAreaCapacityWins(t *testing.T) {
	// Capacity effects need multi-pass traces: at 500K accesses bzip2
	// sweeps its 6MB working set several times, so the 128MB Zhang_R
	// holds it while the 1MB Jan_S thrashes (paper: Zhang_R gains ~20%
	// on bzip2 at fixed-area).
	cfg := Config{Opts: workload.Options{Accesses: 500000, Seed: 3}}
	fig, err := RunFigure(context.Background(), "fixed-area bzip2", reference.FixedAreaModels(), []string{"bzip2"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spZhang, _, _, err := fig.Cell("bzip2", "Zhang_R")
	if err != nil {
		t.Fatal(err)
	}
	spJan, _, _, err := fig.Cell("bzip2", "Jan_S")
	if err != nil {
		t.Fatal(err)
	}
	if spZhang <= spJan {
		t.Errorf("fixed-area bzip2: Zhang_R speedup %.3f not above Jan_S %.3f", spZhang, spJan)
	}
	if spZhang < 1.02 {
		t.Errorf("fixed-area bzip2: Zhang_R speedup %.3f, want > 1.02 (capacity win)", spZhang)
	}
}

func TestFigure2bFixedAreaHeadlines(t *testing.T) {
	fig, err := Figure2b(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Paper V-B4: Jan_S loses >10% on ft (1MB LLC); dense NVMs
	// (Hayakawa_R 32MB) gain on capacity-starved workloads like ft.
	spJan, _, _, err := fig.Cell("ft", "Jan_S")
	if err != nil {
		t.Fatal(err)
	}
	if spJan > 0.9 {
		t.Errorf("fixed-area ft: Jan_S speedup %.3f, paper reports >10%% reduction", spJan)
	}
	spHay, _, _, err := fig.Cell("ft", "Hayakawa_R")
	if err != nil {
		t.Fatal(err)
	}
	if spHay <= spJan {
		t.Errorf("fixed-area ft: Hayakawa_R %.3f should beat Jan_S %.3f", spHay, spJan)
	}
	// Jan_S remains the energy winner on LLC-light workloads (lowest
	// leakage), e.g. vips.
	_, enJan, _, err := fig.Cell("vips", "Jan_S")
	if err != nil {
		t.Fatal(err)
	}
	_, enZhang, _, err := fig.Cell("vips", "Zhang_R")
	if err != nil {
		t.Fatal(err)
	}
	if enJan >= enZhang {
		t.Errorf("fixed-area vips: Jan_S energy %.3f not below Zhang_R %.3f", enJan, enZhang)
	}
}

func TestCoreSweepRuns(t *testing.T) {
	cfg := testCfg()
	res, err := CoreSweep(context.Background(), "ft", []int{1, 2, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 3 || len(res.Speedup) != 3 {
		t.Fatalf("sweep shape wrong: %d cores, %d rows", len(res.Cores), len(res.Speedup))
	}
	if len(res.LLCs) != 11 {
		t.Fatalf("LLCs = %d, want 11", len(res.LLCs))
	}
	// SRAM at 1 core is the baseline: its speedup must be 1.
	sramIdx := -1
	for i, l := range res.LLCs {
		if l == "SRAM" {
			sramIdx = i
		}
	}
	if got := res.Speedup[0][sramIdx]; got != 1 {
		t.Errorf("1-core SRAM speedup = %g, want 1 (self-normalized)", got)
	}
	// More cores must speed up the parallel workload on SRAM.
	if res.Speedup[2][sramIdx] <= res.Speedup[0][sramIdx] {
		t.Errorf("4-core speedup %.3f not above 1-core %.3f", res.Speedup[2][sramIdx], res.Speedup[0][sramIdx])
	}
}

func TestCoreSweepRejectsSingleThreaded(t *testing.T) {
	if _, err := CoreSweep(context.Background(), "bzip2", nil, testCfg()); err == nil {
		t.Error("single-threaded workload accepted for core sweep")
	}
}

func TestCoreSweepUmekiEnergyWorst(t *testing.T) {
	// Paper V-C2: Umeki_S has the worst NVM energy efficiency at scale —
	// slow (2MB) so the system leaks longer. Check it is worse than
	// Xue_S (8MB, fast) at the largest swept core count on a
	// capacity-hungry workload.
	// The effect needs a multi-pass trace so capacity (2MB Umeki vs 8MB
	// Xue against mg's 5.6MB working set) separates the runtimes.
	cfg := Config{Opts: workload.Options{Accesses: 700000, Seed: 3}}
	res, err := CoreSweep(context.Background(), "mg", []int{8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(name string) int {
		for i, l := range res.LLCs {
			if l == name {
				return i
			}
		}
		return -1
	}
	last := len(res.Cores) - 1
	uRaw, xRaw := res.Raw[last][idx("Umeki_S")], res.Raw[last][idx("Xue_S")]
	if uRaw.TimeNS <= xRaw.TimeNS {
		t.Errorf("8-core mg: Umeki_S time %.3g not above Xue_S %.3g", uRaw.TimeNS, xRaw.TimeNS)
	}
	umeki, xue := uRaw.LLCEnergyJ(), xRaw.LLCEnergyJ()
	if umeki <= xue {
		t.Errorf("8-core mg: Umeki_S energy %.3g not above Xue_S %.3g (slow system leaks longer)", umeki, xue)
	}
}

func TestTableVOrderingHighlights(t *testing.T) {
	rows, err := TableV(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	mpki := map[string]float64{}
	for _, r := range rows {
		if r.MPKI < 0 {
			t.Errorf("%s: negative MPKI", r.Workload)
		}
		mpki[r.Workload] = r.MPKI
	}
	// Headline orderings preserved: bzip2 and cg stress the LLC hard;
	// vips, tonto, ep and exchange2 barely miss.
	for _, hi := range []string{"bzip2", "cg", "mg"} {
		for _, lo := range []string{"vips", "tonto", "ep", "exchange2", "perlbench"} {
			if mpki[hi] <= mpki[lo] {
				t.Errorf("MPKI ordering: %s (%.1f) not above %s (%.1f)", hi, mpki[hi], lo, mpki[lo])
			}
		}
	}
}

func TestTableVIMeasuredAgainstPaper(t *testing.T) {
	rows, err := TableVI(context.Background(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, r := range rows {
		if r.Measured.TotalReads == 0 || r.Measured.TotalWrites == 0 {
			t.Errorf("%s: empty measurement", r.Workload)
		}
		if r.Paper.TotalReads == 0 {
			t.Errorf("%s: missing paper features", r.Workload)
		}
	}
}

// TestTableVIParallelMatchesSerial: characterizing the workloads side by
// side gives the rows, in workload order, that one worker gives, to the
// last bit; a cancelled context fails the table.
func TestTableVIParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	opts := workload.Options{Accesses: 5000, Seed: 3}
	serial, err := TableVI(ctx, Config{Opts: opts, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range workload.CharacterizedNames() {
		if serial[i].Workload != name {
			t.Fatalf("row %d is %s, want %s", i, serial[i].Workload, name)
		}
	}
	parallel, err := TableVI(ctx, Config{Opts: opts, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("TableVI rows differ between 1 and 4 workers")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := TableVI(cancelled, Config{Opts: opts, Parallelism: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled TableVI: err %v, want context.Canceled", err)
	}
}

func TestFigure4PanelsAndHeadline(t *testing.T) {
	cfg := Figure4Config{Config: testCfg()}
	panels, err := Figure4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("panels = %d, want 6 (3 NVMs × 2 configs)", len(panels))
	}
	// The paper's AI headline: energy correlates strongly with write
	// entropy and write footprints, negligibly with total reads/writes.
	// Verify for at least 4 of the 6 panels (small-sample correlations
	// are noisy with only 3 workloads).
	holds := 0
	for _, p := range panels {
		hwg, _ := p.FeatureR("energy", "H_wg")
		wuniq, _ := p.FeatureR("energy", "w_uniq")
		rtot, _ := p.FeatureR("energy", "r_total")
		if (hwg > 0.8 || wuniq > 0.8) && rtot < hwg+0.1 {
			holds++
		}
	}
	if holds < 4 {
		t.Errorf("AI write-feature correlation headline holds in only %d/6 panels", holds)
	}
}

func TestFigure4MeasuredFeatures(t *testing.T) {
	cfg := Figure4Config{Config: testCfg(), Source: MeasuredFeatures}
	panels, err := Figure4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("panels = %d, want 6", len(panels))
	}
}

func TestFigure4BadSource(t *testing.T) {
	cfg := Figure4Config{Config: testCfg(), Source: FeatureSource(9)}
	if _, err := Figure4(context.Background(), cfg); err == nil {
		t.Error("bad feature source accepted")
	}
}

func TestGeneralPurposeCorrelationTotalsDominate(t *testing.T) {
	// Paper Section VI: over ALL workloads, LLC energy is most highly
	// correlated with total reads and writes.
	cfg := Figure4Config{Config: testCfg()}
	panels, err := GeneralPurposeCorrelation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	holds := 0
	for _, p := range panels {
		rtot, _ := p.FeatureR("energy", "r_total")
		wtot, _ := p.FeatureR("energy", "w_tot")
		if wtot == 0 {
			wtot, _ = p.FeatureR("energy", "w_total")
		}
		hrg, _ := p.FeatureR("energy", "H_rg")
		if rtot > 0.4 || wtot > 0.4 || rtot > hrg {
			holds++
		}
	}
	if holds < 3 {
		t.Errorf("general-purpose totals correlation holds in only %d/%d panels", holds, len(panels))
	}
}

func TestFigure2aSmoke(t *testing.T) {
	fig, err := Figure2a(context.Background(), Config{Opts: workload.Options{Accesses: 20000, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Workloads) != 11 || len(fig.LLCs) != 10 {
		t.Fatalf("shape = %d×%d", len(fig.Workloads), len(fig.LLCs))
	}
	for wi := range fig.Workloads {
		for li := range fig.LLCs {
			if fig.Energy[wi][li] <= 0 || fig.Speedup[wi][li] <= 0 {
				t.Fatalf("non-positive cell at %d,%d", wi, li)
			}
		}
	}
	// Parallelism setting must not change results.
	cfg1 := Config{Opts: workload.Options{Accesses: 20000, Seed: 3}, Parallelism: 1}
	fig1, err := Figure2a(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	for wi := range fig.Workloads {
		for li := range fig.LLCs {
			if fig.Speedup[wi][li] != fig1.Speedup[wi][li] {
				t.Fatalf("parallelism changed results at %d,%d", wi, li)
			}
		}
	}
}
