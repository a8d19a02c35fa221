package sweep

// Artifact registry: every table and figure this reproduction can emit,
// addressable by name. CLIs dispatch through Run instead of hard-coding
// one flag per artifact, so a new study (like the degradation sweep)
// becomes reachable everywhere by registering it here.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Renderer is anything that can print itself; tablefmt.Table and
// tablefmt.Heatmap both satisfy it. It is structurally identical to
// cliutil.Renderer, so registry output plugs straight into
// cliutil.RenderAll without sweep importing CLI plumbing.
type Renderer interface {
	Render(w io.Writer) error
}

// ArtifactResult is what running an artifact produces: the typed study
// value (for programmatic consumers) and ready-to-print renderers (for
// CLIs).
type ArtifactResult struct {
	// Value is the artifact's native result: *FigureResult, []TableVRow,
	// *DegradationStudy, ... — callers type-switch when they need more
	// than the rendered form.
	Value any
	// Renderers print the artifact the way cmd/figures historically did,
	// in order, typically separated by blank lines.
	Renderers []Renderer
}

// Artifact is one registered table/figure generator.
type Artifact struct {
	// Name is the registry key, as passed to Run and to -artifact flags.
	Name string
	// Title is a one-line description for -help listings.
	Title string
	run   func(context.Context, Config) (*ArtifactResult, error)
}

// artifacts is the registry, in presentation order (the order cmd/figures
// prints under -all).
var artifacts = []Artifact{
	{"table5", "Table V: workload LLC MPKI (simulated vs paper)", runTableVArtifact},
	{"table6", "Table VI: workload features (measured vs paper)", runTableVIArtifact},
	{"fig1a", "Figure 1a: fixed-capacity, single-threaded", figureArtifact(Figure1a)},
	{"fig1b", "Figure 1b: fixed-capacity, multi-threaded", figureArtifact(Figure1b)},
	{"fig2a", "Figure 2a: fixed-area, single-threaded", figureArtifact(Figure2a)},
	{"fig2b", "Figure 2b: fixed-area, multi-threaded", figureArtifact(Figure2b)},
	{"coresweep", "Section V-C core sweep", runCoreSweepArtifact},
	{"fig4", "Figure 4 correlation heatmaps (paper's Table VI features)", figure4Artifact(PaperFeatures)},
	{"fig4measured", "Figure 4 correlation heatmaps (prism-measured features)", figure4Artifact(MeasuredFeatures)},
	{"lifetime", "endurance/lifetime study (Section VII future work)", runLifetimeArtifact},
	{"predict", "energy predictors trained on non-AI workloads, evaluated on the AI domain", runPredictArtifact},
	{"ablations", "design-lever ablation table (workload 'is' on Kang_P)", runAblationsArtifact},
	{"degradation", "wear-driven degradation over lifetime (capacity/IPC vs age)", runDegradationArtifact},
	{"timeline", "time-resolved phase study (per-epoch series, wear heatmaps)", runTimelineArtifact},
	{"estimate", "profile validation: profile-predicted vs exact LLC hit rate and MPKI per geometry", runEstimateArtifact},
}

// Artifacts lists every registered artifact in presentation order.
func Artifacts() []Artifact {
	out := make([]Artifact, len(artifacts))
	copy(out, artifacts)
	return out
}

// ArtifactNames lists the registered names, for flag help text.
func ArtifactNames() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.Name
	}
	return names
}

// Run executes the named artifact. Unknown names list the registry
// (sorted) in the error, so a typo on a -artifact flag is self-repairing.
func Run(ctx context.Context, name string, cfg Config) (*ArtifactResult, error) {
	for _, a := range artifacts {
		if a.Name == name {
			return a.run(ctx, cfg)
		}
	}
	known := ArtifactNames()
	sort.Strings(known)
	return nil, fmt.Errorf("sweep: unknown artifact %q (known: %s)", name, strings.Join(known, ", "))
}
