package sweep

import (
	"context"
	"strings"
	"testing"

	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

func timelineTestCfg() Config {
	return Config{Opts: workload.Options{Accesses: 15000, Seed: 3}}
}

// TestTimelineStudy is the artifact's acceptance property: every
// design's per-epoch wear_writes series sums EXACTLY (integer counts
// below 2^53 — no epsilon) to its end-of-run WearStats.TotalWrites, and
// the phase summaries are populated.
func TestTimelineStudy(t *testing.T) {
	study, err := Timeline(context.Background(), timelineTestCfg(), TimelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if study.Workload != "is" {
		t.Errorf("default workload %q", study.Workload)
	}
	if len(study.Designs) != 3 {
		t.Fatalf("%d designs, want Kang_P + Chung_S + SRAM", len(study.Designs))
	}
	for _, d := range study.Designs {
		if d.Timeline == nil || d.Phases == nil || d.Wear == nil || d.Heatmap == nil {
			t.Fatalf("%s: incomplete design %+v", d.LLC, d)
		}
		if got, want := d.Timeline.Sum(system.TimelineWearWrites), float64(d.Wear.TotalWrites); got != want {
			t.Errorf("%s: per-epoch wear writes sum to %v, want exactly %v", d.LLC, got, want)
		}
		if got, want := d.Timeline.Sum(system.TimelineLLCWrites), float64(d.Result.LLC.Writes); got != want {
			t.Errorf("%s: per-epoch LLC writes sum to %v, want exactly %v", d.LLC, got, want)
		}
		if d.Phases.Epochs == 0 || d.Phases.PeakToMeanWear < 1 {
			t.Errorf("%s: implausible phases %+v", d.LLC, d.Phases)
		}
		if got, want := d.Heatmap.ColSum(0), float64(d.Wear.TotalWrites); got != want {
			t.Errorf("%s: heatmap writes column %v, want %v", d.LLC, got, want)
		}
	}
	// All designs replay one trace, so their epoch boundaries line up.
	ref := study.Designs[0].Timeline.X
	for _, d := range study.Designs[1:] {
		if len(d.Timeline.X) != len(ref) {
			t.Errorf("%s: %d epochs vs %d — designs must share boundaries", d.LLC, len(d.Timeline.X), len(ref))
			continue
		}
		for i := range ref {
			if d.Timeline.X[i] != ref[i] {
				t.Errorf("%s: epoch %d ends at %d, reference at %d", d.LLC, i, d.Timeline.X[i], ref[i])
				break
			}
		}
	}
}

// TestTimelineArtifact drives the registry entry end to end and checks
// the rendered output carries the summary, epoch tables and wear bands.
func TestTimelineArtifact(t *testing.T) {
	res, err := Run(context.Background(), "timeline", timelineTestCfg())
	if err != nil {
		t.Fatal(err)
	}
	study, ok := res.Value.(*TimelineStudy)
	if !ok {
		t.Fatalf("value type %T", res.Value)
	}
	// summary + 2 epoch tables + one heatmap per design
	if want := 3 + len(study.Designs); len(res.Renderers) != want {
		t.Fatalf("%d renderers, want %d", len(res.Renderers), want)
	}
	var sb strings.Builder
	for _, r := range res.Renderers {
		if err := r.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{
		"Time-resolved phase summary", "write-rate CoV", "set Gini",
		"LLC writes per epoch", "LLC MPKI per epoch",
		"Per-set wear bands: Kang_P", "Per-set wear bands: SRAM",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

// TestTimelineUnknownInputs checks input validation surfaces cleanly.
func TestTimelineUnknownInputs(t *testing.T) {
	if _, err := Timeline(context.Background(), timelineTestCfg(), TimelineOptions{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Timeline(context.Background(), timelineTestCfg(), TimelineOptions{LLCs: []string{"nope"}}); err == nil {
		t.Error("unknown LLC accepted")
	}
}

// TestTimelineSharesEngineCache replays the study on an engine that
// already answered the same design points unsampled: the sampled jobs
// key apart and simulate, and a second study then rides the cache.
func TestTimelineSharesEngineCache(t *testing.T) {
	cfg := timelineTestCfg()
	eng := cfg.engineOrNew()
	cfg.Engine = eng

	// Prime the cache with unsampled runs of the same jobs.
	if _, err := Degradation(context.Background(), cfg, DegradationOptions{}); err != nil {
		t.Fatal(err)
	}
	primed := eng.Stats().Simulated
	study, err := Timeline(context.Background(), cfg, TimelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Simulated - primed; got != uint64(len(study.Designs)) {
		t.Errorf("study simulated %d jobs, want one per design (%d)", got, len(study.Designs))
	}
	for _, d := range study.Designs {
		if d.Timeline == nil {
			t.Fatalf("%s: cached unsampled result answered a sampled job", d.LLC)
		}
	}
	before := eng.Stats().Simulated
	again, err := Timeline(context.Background(), cfg, TimelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Simulated; got != before {
		t.Errorf("second study simulated %d more jobs; the first study's entries should hit", got-before)
	}
	for i, d := range again.Designs {
		if d.Timeline.Sum(system.TimelineLLCWrites) != study.Designs[i].Timeline.Sum(system.TimelineLLCWrites) {
			t.Errorf("%s: cached study diverged", d.LLC)
		}
	}
}
