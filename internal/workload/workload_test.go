package workload

import (
	"math"
	"testing"

	"nvmllc/internal/prism"
	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfilesCoverTableV(t *testing.T) {
	ps := Profiles()
	if len(ps) != 20 {
		t.Fatalf("profiles = %d, want 20", len(ps))
	}
	for _, w := range reference.Workloads() {
		p, err := ByName(w.Name)
		if err != nil {
			t.Errorf("no profile for Table V workload %s", w.Name)
			continue
		}
		if p.MT != w.MultiThreaded {
			t.Errorf("%s: MT = %v, Table V says %v", w.Name, p.MT, w.MultiThreaded)
		}
	}
	if _, err := ByName("unknown"); err == nil {
		t.Error("ByName(unknown) succeeded")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := Component{Kind: Hot, Weight: 1, Lines: 10, WriteFrac: 0.5}
	bad := []Profile{
		{Name: "", InstrPerAccess: 3, LengthFactor: 1, Components: []Component{good}},
		{Name: "x", InstrPerAccess: 0.5, LengthFactor: 1, Components: []Component{good}},
		{Name: "x", InstrPerAccess: 3, LengthFactor: 0, Components: []Component{good}},
		{Name: "x", InstrPerAccess: 3, LengthFactor: 1},
		{Name: "x", InstrPerAccess: 3, LengthFactor: 1,
			Components: []Component{{Kind: Hot, Weight: 0, Lines: 10}}},
		{Name: "x", InstrPerAccess: 3, LengthFactor: 1,
			Components: []Component{{Kind: Hot, Weight: 1, Lines: 0}}},
		{Name: "x", InstrPerAccess: 3, LengthFactor: 1,
			Components: []Component{{Kind: Hot, Weight: 1, Lines: 10, WriteFrac: 2}}},
		{Name: "x", InstrPerAccess: 3, LengthFactor: 1,
			Components: []Component{{Kind: Hot, Weight: 1, Lines: 10, ZipfS: 0.9}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("leela")
	opts := Options{Accesses: 20000, Seed: 42}
	a, err := Generate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Accesses) != len(b.Accesses) {
		t.Fatal("lengths differ")
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a.Accesses[i], b.Accesses[i])
		}
	}
	c, err := Generate(p, Options{Accesses: 20000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Accesses {
		if a.Accesses[i] != c.Accesses[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateAllProfilesProduceValidTraces(t *testing.T) {
	for _, p := range Profiles() {
		tr, err := Generate(p, Options{Accesses: 30000})
		if err != nil {
			t.Errorf("Generate(%s): %v", p.Name, err)
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		wantThreads := 1
		if p.MT {
			wantThreads = 4
		}
		if tr.Threads != wantThreads {
			t.Errorf("%s: threads = %d, want %d", p.Name, tr.Threads, wantThreads)
		}
		if tr.InstrCount < uint64(len(tr.Accesses)) {
			t.Errorf("%s: instr count below accesses", p.Name)
		}
	}
}

func TestWriteFractionsMatchTableVI(t *testing.T) {
	// The generated store share must match the paper's w/(r+w) within a
	// few points for every characterized workload.
	features := reference.PaperFeatures()
	for _, name := range CharacterizedNames() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f := features[name]
		want := float64(f.TotalWrites) / float64(f.TotalReads+f.TotalWrites)
		tr, err := Generate(p, Options{Accesses: 60000})
		if err != nil {
			t.Fatal(err)
		}
		r, w, _ := tr.Counts()
		got := float64(w) / float64(r+w)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("%s: write fraction %.3f, Table VI implies %.3f", name, got, want)
		}
	}
}

func TestRelativeTraceLengthsFollowTotals(t *testing.T) {
	// exchange2 must be the longest trace; is among the shortest — the
	// paper's totals ordering for the AI correlation study.
	lengths := map[string]int{}
	for _, name := range []string{"exchange2", "deepsjeng", "leela", "is", "cg"} {
		p, _ := ByName(name)
		tr, err := Generate(p, Options{Accesses: 50000})
		if err != nil {
			t.Fatal(err)
		}
		lengths[name] = len(tr.Accesses)
	}
	if !(lengths["exchange2"] > lengths["deepsjeng"] && lengths["deepsjeng"] > lengths["leela"]) {
		t.Errorf("AI totals ordering broken: %v", lengths)
	}
	if lengths["is"] >= lengths["leela"] {
		t.Errorf("is should be shorter than leela: %v", lengths)
	}
}

func TestFootprintOrderingMatchesTableVI(t *testing.T) {
	// Characterize a few key workloads and check the paper's extremes:
	// GemsFDTD has the largest unique footprint, exchange2 the smallest,
	// deepsjeng in between but large.
	uniq := map[string]uint64{}
	for _, name := range []string{"GemsFDTD", "deepsjeng", "exchange2", "tonto", "leela"} {
		p, _ := ByName(name)
		tr, err := Generate(p, Options{Accesses: 400000})
		if err != nil {
			t.Fatal(err)
		}
		f := prism.Characterize(tr, prism.Config{})
		uniq[name] = f.UniqueReads + f.UniqueWrites
	}
	if !(uniq["GemsFDTD"] > uniq["deepsjeng"]) {
		t.Errorf("GemsFDTD unique %d not above deepsjeng %d", uniq["GemsFDTD"], uniq["deepsjeng"])
	}
	if !(uniq["deepsjeng"] > uniq["leela"] && uniq["leela"] > uniq["tonto"]) {
		t.Errorf("unique ordering broken: %v", uniq)
	}
	for name, u := range uniq {
		if name != "exchange2" && u <= uniq["exchange2"] {
			t.Errorf("%s unique %d not above exchange2 %d", name, u, uniq["exchange2"])
		}
	}
}

func TestConcentrationMatchesTableVIShape(t *testing.T) {
	// deepsjeng and exchange2 are hot-set dominated: their 90% footprint
	// is a tiny fraction of unique. GemsFDTD is uniform: a large fraction.
	conc := func(name string) float64 {
		p, _ := ByName(name)
		tr, err := Generate(p, Options{Accesses: 400000})
		if err != nil {
			t.Fatal(err)
		}
		f := prism.Characterize(tr, prism.Config{})
		return float64(f.Footprint90Reads) / float64(f.UniqueReads)
	}
	if c := conc("deepsjeng"); c > 0.3 {
		t.Errorf("deepsjeng 90%%/unique = %.2f, want hot-dominated (≤0.3)", c)
	}
	if c := conc("GemsFDTD"); c < 0.2 {
		t.Errorf("GemsFDTD 90%%/unique = %.2f, want spread (≥0.2)", c)
	}
}

func TestEntropyOrderingMatchesTableVI(t *testing.T) {
	// Table VI: GemsFDTD and cg have the highest global read entropy,
	// exchange2 and ep the lowest.
	h := map[string]float64{}
	for _, name := range []string{"GemsFDTD", "cg", "exchange2", "ep", "bzip2"} {
		p, _ := ByName(name)
		tr, err := Generate(p, Options{Accesses: 300000})
		if err != nil {
			t.Fatal(err)
		}
		h[name] = prism.Characterize(tr, prism.Config{}).GlobalReadEntropy
	}
	for _, hi := range []string{"GemsFDTD", "cg", "bzip2"} {
		for _, lo := range []string{"exchange2", "ep"} {
			if h[hi] <= h[lo] {
				t.Errorf("entropy ordering: H(%s)=%.2f not above H(%s)=%.2f", hi, h[hi], lo, h[lo])
			}
		}
	}
}

func TestMultiThreadedScalesToThreadCount(t *testing.T) {
	p, _ := ByName("cg")
	for _, threads := range []int{1, 2, 8, 16} {
		tr, err := Generate(p, Options{Accesses: 40000, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Threads != threads {
			t.Errorf("threads = %d, want %d", tr.Threads, threads)
		}
		parts, err := splitByThread(tr.Accesses, threads)
		if err != nil {
			t.Fatal(err)
		}
		for tid, part := range parts {
			if len(part) == 0 {
				t.Errorf("thread %d of %d got no accesses", tid, threads)
			}
		}
	}
}

func TestSharedVsPrivateRegions(t *testing.T) {
	// cg's random component is shared: different threads must touch
	// overlapping lines. Its hot component is private: hot lines differ.
	p, _ := ByName("cg")
	tr, err := Generate(p, Options{Accesses: 100000, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	perThread, err := splitByThread(tr.Accesses, 4)
	if err != nil {
		t.Fatal(err)
	}
	lines := func(accs []trace.Access) map[uint64]bool {
		m := make(map[uint64]bool)
		for _, a := range accs {
			m[a.Addr>>6] = true
		}
		return m
	}
	l0, l1 := lines(perThread[0]), lines(perThread[1])
	overlap := 0
	for l := range l0 {
		if l1[l] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Error("threads share no lines despite shared component")
	}
	if overlap == len(l0) {
		t.Error("threads fully overlap despite private hot component")
	}
}

func TestGenerateRejectsTooManyThreads(t *testing.T) {
	p, _ := ByName("cg")
	if _, err := Generate(p, Options{Accesses: 1000, Threads: 65}); err == nil {
		t.Error("accepted 65 threads")
	}
}

func TestComponentKindString(t *testing.T) {
	if Hot.String() != "hot" || Stream.String() != "stream" || Random.String() != "random" {
		t.Error("component kind names wrong")
	}
	if ComponentKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestProfileHelpers(t *testing.T) {
	p := Profile{
		Name: "h", InstrPerAccess: 3, LengthFactor: 1,
		Components: []Component{
			{Kind: Hot, Weight: 1, Lines: 10, WriteFrac: 0.2},
			{Kind: Random, Weight: 3, Lines: 20, WriteFrac: 0.6},
		},
	}
	want := (1*0.2 + 3*0.6) / 4
	if math.Abs(p.WriteFraction()-want) > 1e-12 {
		t.Errorf("WriteFraction = %g, want %g", p.WriteFraction(), want)
	}
	if p.FootprintLines() != 30 {
		t.Errorf("FootprintLines = %d, want 30", p.FootprintLines())
	}
}

func TestCharacterizedNamesExcludesPRISMIncompatible(t *testing.T) {
	names := CharacterizedNames()
	if len(names) != 16 {
		t.Fatalf("characterized = %d, want 16", len(names))
	}
	for _, n := range names {
		if n == "gamess" || n == "gobmk" || n == "milc" || n == "perlbench" {
			t.Errorf("%s should be excluded", n)
		}
	}
	if len(AINames()) != 3 {
		t.Error("AI names wrong")
	}
}

func TestStreamComponentIsSequential(t *testing.T) {
	p := Profile{
		Name: "seq", InstrPerAccess: 3, LengthFactor: 1,
		Components: []Component{{Kind: Stream, Weight: 1, Lines: 1000}},
	}
	tr, err := Generate(p, Options{Accesses: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive accesses advance by one line (mod wrap).
	for i := 1; i < 500; i++ {
		d := int64(tr.Accesses[i].Addr>>6) - int64(tr.Accesses[i-1].Addr>>6)
		if d != 1 && d != -(1000-1) {
			t.Fatalf("access %d: line delta %d, want +1 or wrap", i, d)
		}
	}
}
