// Command figures regenerates every table and figure of the paper's
// evaluation from this reproduction: Figures 1a/1b (fixed-capacity),
// Figures 2a/2b (fixed-area), the Section V-C core sweep, Table V (LLC
// MPKI), Table VI (workload features), the Figure 4 correlation
// heatmaps, the lifetime/prediction/ablation studies and the
// wear-driven degradation sweep.
//
// Artifacts are selected by registry name through -artifact (see -help
// for the list). Every requested artifact runs through one
// shared experiment engine, so design points common to several figures
// (most prominently the SRAM baselines) simulate exactly once. SIGINT
// aborts the run cleanly and prints the partial engine statistics.
//
// Usage:
//
//	figures -all
//	figures -artifact fig1a,fig4
//	figures -artifact degradation
//	figures -artifact coresweep -accesses 800000
//	figures -artifact fig1a -contention      (write-contention ablation)
//	figures -all -timeout 5m -parallelism 4
//	figures -manifest run.jsonl -debug-addr localhost:0
//
// With no artifact selected, Table V is regenerated. -manifest writes a
// JSONL run manifest (one design_point event per answered design point)
// and -debug-addr serves live /metrics, expvar and pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"nvmllc/internal/cliutil"
	"nvmllc/internal/sweep"
	"nvmllc/internal/workload"
)

func main() {
	var (
		all      = flag.Bool("all", false, "regenerate everything")
		contend  = flag.Bool("contention", false, "model LLC write contention (ablation of the paper's off-critical-path writes)")
		measured = flag.Bool("measuredfeatures", false, "use prism-measured features for Figure 4 instead of the paper's Table VI")
		progress = flag.Duration("progress", 2*time.Second, "engine progress reporting interval on stderr (0 disables)")
	)
	artifactSel := cliutil.ArtifactFlag(nil, sweep.ArtifactNames())
	std := cliutil.StandardFlags(nil, 600_000)
	std.ManifestFlag(nil)
	flag.Parse()

	cliutil.Main("figures", func(ctx context.Context) (err error) {
		ctx, cancel := std.WithTimeout(ctx)
		defer cancel()

		// The observability surface: metrics registry + root span always,
		// JSONL manifest with -manifest, live endpoint with -debug-addr.
		obs, err := std.StartObservability("figures")
		if err != nil {
			return err
		}
		defer func() {
			if cerr := obs.Close(err); err == nil {
				err = cerr
			}
		}()
		ctx = obs.Context(ctx)

		// One engine across every requested artifact: design points shared
		// between figures simulate once, and SIGINT reports partial stats.
		eng := std.Engine(obs.EngineOptions()...)
		obs.TrackEngine(eng)
		cfg := sweep.Config{
			Opts:            workload.Options{Accesses: std.Accesses, Seed: std.Seed},
			WriteContention: *contend,
			Engine:          eng,
			Telemetry:       obs.Registry,
		}
		stopProgress := cliutil.StartProgress(eng, *progress)
		defer stopProgress()

		run, defaulted := selectArtifacts(artifactSel.Names(), *all, *measured)
		if defaulted {
			fmt.Fprintln(os.Stderr, "figures: no artifact selected, defaulting to -artifact table5 (see -help)")
		}

		for _, name := range run {
			if err := renderArtifact(ctx, name, cfg); err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					stopProgress()
					fmt.Fprintf(os.Stderr, "figures: aborted; partial stats: %s\n", eng.Stats())
				}
				return err
			}
			fmt.Println()
		}
		stopProgress()
		fmt.Fprintf(os.Stderr, "figures: %s\n", eng.Stats())
		return nil
	})
}

// selectArtifacts resolves every selection surface — -artifact names,
// -all and -measuredfeatures — into the run list, deduplicated and in
// registry order. Naming an artifact more than once selects it exactly
// once: selection is a set, and the registry iteration below emits each
// member at most once regardless of how many flags asked for it.
// defaulted reports that nothing was selected and table5 (the lightest
// full-workload-grid artifact) was substituted, so bare invocations
// still produce design points.
func selectArtifacts(names []string, all, measured bool) (run []string, defaulted bool) {
	selected := map[string]bool{}
	for _, name := range names {
		selected[name] = true
	}
	if all {
		for _, a := range sweep.Artifacts() {
			// -all keeps the paper-feature Figure 4; the measured
			// variant is an explicit opt-in (below or by name).
			if a.Name != "fig4measured" {
				selected[a.Name] = true
			}
		}
	}
	if measured && selected["fig4"] {
		delete(selected, "fig4")
		selected["fig4measured"] = true
	}
	if len(selected) == 0 {
		selected["table5"] = true
		defaulted = true
	}
	for _, a := range sweep.Artifacts() {
		if selected[a.Name] {
			run = append(run, a.Name)
		}
	}
	return run, defaulted
}

// renderArtifact runs one registry artifact and prints its renderers.
func renderArtifact(ctx context.Context, name string, cfg sweep.Config) error {
	res, err := sweep.Run(ctx, name, cfg)
	if err != nil {
		return err
	}
	renderers := make([]cliutil.Renderer, len(res.Renderers))
	for i, r := range res.Renderers {
		renderers[i] = r
	}
	return cliutil.RenderAll(os.Stdout, renderers...)
}
