package workload

import (
	"math"
	"testing"
)

// TestWriteFractionMatchesProfileExpectation: every generated trace's
// store share converges to the profile's analytic WriteFraction.
func TestWriteFractionMatchesProfileExpectation(t *testing.T) {
	for _, p := range Profiles() {
		tr, err := Generate(p, Options{Accesses: 60000, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r, w, _ := tr.Counts()
		got := float64(w) / float64(r+w)
		want := p.WriteFraction()
		if math.Abs(got-want) > 0.03 {
			t.Errorf("%s: write fraction %.3f, profile expects %.3f", p.Name, got, want)
		}
	}
}

// TestFootprintBounded: the touched line count never exceeds the profile's
// declared footprint (per thread partitioning can only reduce it).
func TestFootprintBounded(t *testing.T) {
	for _, p := range Profiles() {
		tr, err := Generate(p, Options{Accesses: 50000, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		lines := map[uint64]bool{}
		for _, a := range tr.Accesses {
			lines[a.Addr>>6] = true
		}
		bound := p.FootprintLines()
		if !p.MT {
			if int64(len(lines)) > bound {
				t.Errorf("%s: touched %d lines, profile bound %d", p.Name, len(lines), bound)
			}
			continue
		}
		// MT: private components replicate per thread (4 by default).
		if int64(len(lines)) > bound*4 {
			t.Errorf("%s: touched %d lines, MT bound %d", p.Name, len(lines), bound*4)
		}
	}
}

// TestComponentRegionsAreDisjoint: no two components of any profile may
// generate the same line address (regions are carved from distinct bases).
func TestComponentRegionsAreDisjoint(t *testing.T) {
	for _, p := range Profiles() {
		tr, err := Generate(p, Options{Accesses: 40000, Seed: 5, Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// The component index is recoverable from the address layout.
		perComponent := map[uint64]map[uint64]bool{}
		for _, a := range tr.Accesses {
			comp := (a.Addr >> componentShift) & 0xff
			if perComponent[comp] == nil {
				perComponent[comp] = map[uint64]bool{}
			}
			perComponent[comp][a.Addr>>6] = true
		}
		if len(perComponent) != len(p.Components) {
			t.Errorf("%s: %d address regions for %d components", p.Name, len(perComponent), len(p.Components))
		}
	}
}

// TestThreadBalance: multi-threaded traces split work evenly.
func TestThreadBalance(t *testing.T) {
	p, _ := ByName("sp")
	tr, err := Generate(p, Options{Accesses: 48000, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := splitByThread(tr.Accesses, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := len(tr.Accesses) / 8
	for tid, part := range parts {
		if len(part) != want {
			t.Errorf("thread %d has %d accesses, want %d", tid, len(part), want)
		}
	}
}

// TestInstructionCountScaling: instruction counts follow InstrPerAccess.
func TestInstructionCountScaling(t *testing.T) {
	for _, p := range Profiles() {
		tr, err := Generate(p, Options{Accesses: 20000})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(len(tr.Accesses)) * p.InstrPerAccess
		if math.Abs(float64(tr.InstrCount)-want) > 1 {
			t.Errorf("%s: instr count %d, want %g", p.Name, tr.InstrCount, want)
		}
	}
}

// TestSeedIndependenceAcrossWorkloads: two different profiles with the
// same seed must not produce identical address streams (per-name salt).
func TestSeedIndependenceAcrossWorkloads(t *testing.T) {
	a, err := Generate(mustProfile(t, "sp"), Options{Accesses: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(mustProfile(t, "ua"), Options{Accesses: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := len(a.Accesses)
	if len(b.Accesses) < n {
		n = len(b.Accesses)
	}
	same := 0
	for i := 0; i < n; i++ {
		if a.Accesses[i].Addr == b.Accesses[i].Addr {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("sp and ua share %d/%d addresses at the same positions", same, n)
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMinimumTraceLength: even a tiny budget yields a usable trace.
func TestMinimumTraceLength(t *testing.T) {
	p, _ := ByName("tonto")
	tr, err := Generate(p, Options{Accesses: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Accesses) < 1000 {
		t.Errorf("minimum trace length = %d, want ≥ 1000", len(tr.Accesses))
	}
}

// TestZipfDefaultSkew: Hot components without an explicit skew still
// produce a concentrated distribution (top line ≫ uniform share).
func TestZipfDefaultSkew(t *testing.T) {
	p := Profile{
		Name: "zipfdefault", InstrPerAccess: 3, LengthFactor: 1,
		Components: []Component{{Kind: Hot, Weight: 1, Lines: 1000}},
	}
	tr, err := Generate(p, Options{Accesses: 50000})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for _, a := range tr.Accesses {
		counts[a.Addr]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformShare := len(tr.Accesses) / 1000
	if max < 5*uniformShare {
		t.Errorf("hottest line %d accesses, want ≫ uniform %d", max, uniformShare)
	}
}
