package system

import (
	"context"
	"fmt"
	"testing"

	"nvmllc/internal/fault"
	"nvmllc/internal/golden"
	"nvmllc/internal/mainmem"
	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// resultsFile holds the digests of the result matrix below.
const resultsFile = "results.sha256"

// goldenCase is one design point of the pinned result matrix. cfg builds
// a fresh Config per call, because a custom main memory is stateful.
type goldenCase struct {
	name     string
	workload string
	opts     workload.Options
	cfg      func() Config
}

// variantKey names a machine-variant case of the matrix.
func variantKey(variant string, threads int) string {
	return fmt.Sprintf("variant/%s/%dt", variant, threads)
}

// variantOpts is the trace every machine-variant case runs.
func variantOpts(threads int) workload.Options {
	return workload.Options{Accesses: 20000, Threads: threads}
}

// faultedOpts are the trace sizes of the mild and harsh fault cases.
var faultedOpts = map[string]workload.Options{
	"mild":  {Accesses: 25000, Threads: 4},
	"harsh": {Accesses: 60000, Threads: 4},
}

// faultedEndurance are the scaled endurances of the mild and harsh fault
// cases (see TestFaultedRunEquivalence).
var faultedEndurance = map[string]float64{"mild": 0.05, "harsh": 0.004}

// timelineWearCase is the SRAM wear-heatmap timeline case.
func timelineWearCase() goldenCase {
	return goldenCase{
		name:     "timeline/sram-wear",
		workload: "ft",
		opts:     workload.Options{Accesses: 40000, Threads: 4, Seed: 7},
		cfg: func() Config {
			cfg := Gainestown(reference.SRAMBaseline()).WithCores(4)
			cfg.TrackWear = true
			cfg.Timeline = &TimelineConfig{Points: 24}
			return cfg
		},
	}
}

// goldenCases is the result matrix: every machine variant (LRU, SRRIP
// and Random replacement, coherence on and off, write contention,
// dead-block bypass, hybrid) at 1–16 threads, fault injection with and
// without pre-wear, an NVM main memory, and epoch-sampled timelines.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	for name, mk := range machineVariants(t) {
		for _, threads := range []int{1, 2, 4, 8, 16} {
			cases = append(cases, goldenCase{
				name:     variantKey(name, threads),
				workload: "ft",
				opts:     variantOpts(threads),
				cfg:      func() Config { return mk(threads) },
			})
		}
	}
	for name, endurance := range faultedEndurance {
		cases = append(cases, goldenCase{
			name:     "fault/" + name,
			workload: "is",
			opts:     faultedOpts[name],
			cfg:      func() Config { return faultedKang(t, endurance) },
		})
	}
	prewear := func() Config {
		cfg := Gainestown(kang).WithCores(4)
		cfg.Fault = fault.Config{Options: fault.Options{Class: kang.Class}, PreWearWrites: 4e7}
		return cfg
	}
	prewearOpts := workload.Options{Accesses: 40000, Threads: 4, Seed: 1}
	cases = append(cases,
		goldenCase{name: "fault/prewear", workload: "is", opts: prewearOpts, cfg: prewear},
		goldenCase{name: "timeline/fault-prewear", workload: "is", opts: prewearOpts, cfg: func() Config {
			cfg := prewear()
			cfg.Timeline = &TimelineConfig{Points: 16}
			return cfg
		}},
		timelineWearCase(),
		goldenCase{name: "mainmem/pcram", workload: "ft", opts: variantOpts(4), cfg: func() Config {
			mem, err := mainmem.New(mainmem.Preset(mainmem.PCRAMMem))
			if err != nil {
				t.Fatal(err)
			}
			cfg := Gainestown(kang).WithCores(4)
			cfg.Memory = mem
			return cfg
		}},
	)
	return cases
}

// generate materializes a case's trace.
func (gc goldenCase) generate(t *testing.T) *trace.Trace {
	t.Helper()
	p, err := workload.ByName(gc.workload)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(p, gc.opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkGolden fails the test unless res's JSON digest equals the
// committed digest of the named matrix case.
func checkGolden(t *testing.T, want map[string]string, name string, res *Result) {
	t.Helper()
	if got := golden.Digest(marshalResult(t, res)); got != want[name] {
		t.Errorf("%s: result digest %s, committed %q", name, got, want[name])
	}
}

// TestGoldenResults pins the Result JSON of every matrix case to
// testdata/golden/results.sha256. The committed digests were taken when
// the whole-trace heap scheduler, the linear-scan scheduler, the AoS tag
// store and the streaming ring all still existed and agreed byte for
// byte on every case; the streaming ring must keep reproducing them.
func TestGoldenResults(t *testing.T) {
	got := make(map[string]string)
	for _, gc := range goldenCases(t) {
		res, err := Run(context.Background(), gc.cfg(), gc.generate(t))
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		got[gc.name] = golden.Digest(marshalResult(t, res))
	}
	golden.Check(t, resultsFile, got)
}
