package system

// Fault-injection properties at the whole-simulator level: a disabled
// fault config must be provably inert (bit-identical results to a config
// that never mentions faults, for materialized and generated input), and
// an enabled one must degrade deterministically, reproducing the digests
// committed while the AoS tag store still ran alongside the SoA one.

import (
	"bytes"
	"context"
	"testing"

	"nvmllc/internal/fault"
	"nvmllc/internal/golden"
	"nvmllc/internal/reference"
	"nvmllc/internal/workload"
)

// faultedKang returns a Kang_P (PCRAM) config whose endurance is scaled
// down so faults fire within a short synthetic trace.
func faultedKang(t *testing.T, enduranceWrites float64) Config {
	t.Helper()
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(kang)
	cfg.Fault = fault.Config{
		Options: fault.Options{Class: kang.Class, EnduranceWrites: enduranceWrites},
		Seed:    21,
	}
	return cfg
}

// TestFaultZeroValueBitIdentical: a Config whose Fault field is set but
// disabled (infinite endurance) must produce byte-identical Results to
// the untouched zero-value Fault — itself pinned to the committed
// digests — for both materialized and generator-fed input: the
// inertness guarantee that keeps fault-free runs bit-identical to the
// pre-fault simulator.
func TestFaultZeroValueBitIdentical(t *testing.T) {
	digests := golden.Load(t, resultsFile)
	prof, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	for name, mkCfg := range machineVariants(t) {
		opts := variantOpts(4)
		tr, err := workload.Generate(prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := mkCfg(4)
		want, err := Run(context.Background(), base, tr)
		if err != nil {
			t.Fatal(err)
		}
		if want.Degradation != nil {
			t.Fatalf("%s: zero-value fault config produced degradation stats", name)
		}
		checkGolden(t, digests, variantKey(name, 4), want)
		wantB := marshalResult(t, want)

		// Same machine, fault config populated but disabled: every knob
		// set, endurance infinite (zero-value Options ⇒ SRAM ⇒ +Inf).
		cfg := base
		cfg.Fault = fault.Config{Seed: 99, Spread: 2, MaxRetries: 5, SoftFraction: 0.5}
		if cfg.Fault.Enabled() {
			t.Fatal("test config unexpectedly enabled")
		}
		got, err := Run(context.Background(), cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if gotB := marshalResult(t, got); !bytes.Equal(gotB, wantB) {
			t.Errorf("%s: disabled fault config changed the result\ngot:  %s\nwant: %s", name, gotB, wantB)
		}
		gen, err := workload.NewGenerator(prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err = RunStreamWith(context.Background(), cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotB := marshalResult(t, got); !bytes.Equal(gotB, wantB) {
			t.Errorf("%s/generator: disabled fault config changed the result", name)
		}
	}
}

// TestFaultedRunEquivalence: with faults actively condemning ways,
// materialized and generator-fed runs must agree byte for byte and
// reproduce the digests committed while the AoS tag store ran alongside,
// at a mild endurance (a few condemnations) and a harsh one (dead sets
// and DRAM bypassing).
func TestFaultedRunEquivalence(t *testing.T) {
	digests := golden.Load(t, resultsFile)
	prof, err := workload.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	// The Gainestown Kang_P LLC sees only a few writes per set over a
	// short trace (≈3.7 per 16-way set at 25k accesses), so the scaled
	// endurances sit well below one per-cell write: "mild" condemns a few
	// ways in the hottest sets, "harsh" is below every threshold so each
	// write condemns a way and the hottest sets die completely.
	for name, endurance := range faultedEndurance {
		opts := faultedOpts[name]
		tr, err := workload.Generate(prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := faultedKang(t, endurance)
		want, err := Run(context.Background(), cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		d := want.Degradation
		if d == nil || d.CondemnedWays == 0 {
			t.Fatalf("%s: no degradation observed (endurance too high for the trace?)", name)
		}
		if name == "harsh" && d.DeadSets == 0 {
			t.Fatal("harsh endurance produced no dead sets; tighten it")
		}
		if d.CapacityFraction() >= 1 {
			t.Fatalf("%s: capacity did not drop: %+v", name, d)
		}
		checkGolden(t, digests, "fault/"+name, want)
		wantB := marshalResult(t, want)
		gen, err := workload.NewGenerator(prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := RunStreamWith(context.Background(), cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		if streamB := marshalResult(t, stream); !bytes.Equal(streamB, wantB) {
			t.Errorf("%s: streaming diverged under faults", name)
		}
	}
}

// TestFaultDeterminism: the fault process is part of the simulation's
// deterministic identity — same config ⇒ identical results; a different
// fault seed ⇒ a different fault history.
func TestFaultDeterminism(t *testing.T) {
	prof, err := workload.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(prof, workload.Options{Accesses: 25000, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Endurance chosen so per-write wear steps (1/ways) are fine-grained
	// against the threshold band [E/2, 2E): which ways die then depends on
	// the per-cell draws, i.e. on the seed.
	cfg := faultedKang(t, 0.3)
	a, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalResult(t, a), marshalResult(t, b)) {
		t.Error("same config not deterministic under faults")
	}
	cfg2 := cfg
	cfg2.Fault.Seed = 22
	c, err := Run(context.Background(), cfg2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Degradation == nil || c.Degradation == nil {
		t.Fatal("degradation stats missing")
	}
	if a.Degradation.CondemnedWays == 0 {
		t.Fatal("no condemnations fired; the seed comparison would be vacuous")
	}
	if *a.Degradation == *c.Degradation {
		t.Error("different fault seeds produced identical fault histories")
	}
}

// TestFaultPreAgingMonotone: more pre-wear can only shrink the effective
// capacity the run ends with.
func TestFaultPreAgingMonotone(t *testing.T) {
	prof, err := workload.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(prof, workload.Options{Accesses: 15000, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, prewear := range []float64{0, 0.04, 0.08, 0.16, 0.32} {
		cfg := faultedKang(t, 0.16)
		cfg.Fault.PreWearWrites = prewear
		r, err := Run(context.Background(), cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		capFrac := r.Degradation.CapacityFraction()
		if capFrac > prev {
			t.Fatalf("prewear %g: capacity %g above %g at lower wear", prewear, capFrac, prev)
		}
		prev = capFrac
	}
	if prev >= 1 {
		t.Error("deepest pre-aging left the cache pristine; endurance too high for the sweep")
	}
}

// TestFaultHybridRejected: fault injection composes with the single-tech
// LLC only; hybrid configs must be rejected at validation.
func TestFaultHybridRejected(t *testing.T) {
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Gainestown(kang)
	cfg.Hybrid = &HybridConfig{SRAM: reference.SRAMBaseline(), NVM: kang, SRAMWays: 4}
	cfg.Fault = fault.Config{Options: fault.Options{Class: kang.Class}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("hybrid + faults accepted")
	}
}
