// Command llcsim runs one workload against one LLC model on the simulated
// Gainestown system and prints the full result: timing, cache statistics,
// LLC energy breakdown and the paper's combined metrics.
//
// Usage:
//
//	llcsim -workload cg -llc Jan_S -config area -accesses 1000000
//	llcsim -workload bzip2 -llc SRAM
//	llcsim -workload is -llc Kang_P -contention   (write-contention ablation)
//	llcsim -workload is -llc Kang_P -faults -prewear 2.8e7   (aged, faulty LLC)
//	llcsim -workload is -llc Kang_P -timeline     (per-epoch phase report)
//	llcsim -artifact degradation                  (run a registry artifact instead)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"nvmllc/internal/cliutil"
	"nvmllc/internal/endurance"
	"nvmllc/internal/engine"
	"nvmllc/internal/fault"
	"nvmllc/internal/mainmem"
	"nvmllc/internal/reference"
	"nvmllc/internal/sweep"
	"nvmllc/internal/system"
	"nvmllc/internal/tablefmt"
	"nvmllc/internal/workload"
)

func main() {
	wl := flag.String("workload", "cg", "Table V workload name")
	llc := flag.String("llc", "SRAM", "LLC model name from Table III (e.g. Jan_S, Zhang_R, SRAM)")
	config := flag.String("config", "cap", "LLC configuration block: cap (fixed-capacity) or area (fixed-area)")
	threads := flag.Int("threads", 4, "threads for multi-threaded workloads")
	cores := flag.Int("cores", 4, "simulated cores")
	contention := flag.Bool("contention", false, "model LLC bank write contention (ablation)")
	wear := flag.Bool("wear", false, "track LLC write wear and project lifetime")
	timeline := flag.Bool("timeline", false, "sample per-epoch series (hits, writes, MPKI, wear, faults) and print a phase report")
	timelineCSV := flag.String("timeline-csv", "", "write the full-resolution epoch series (and per-set wear grid) to this CSV path (implies -timeline)")
	faults := flag.Bool("faults", false, "inject wear-driven stuck-at faults (endurance from the LLC's NVM class)")
	prewear := flag.Float64("prewear", 0, "pre-age the LLC by this many per-cell writes before the run (implies -faults)")
	estimate := flag.Bool("estimate", false, "validate the reuse-distance profile on -workload: profile-predicted vs exact LLC hit rate and MPKI per LLC geometry")
	mainMemTech := flag.String("mainmem", "", "replace DRAM with an NVMain-style main memory: dram, pcram, sttram, rram")
	hybridWays := flag.Int("hybridsram", 0, "make the LLC a hybrid with this many SRAM ways (rest NVM from -llc)")
	artifactSel := cliutil.ArtifactFlag(nil, sweep.ArtifactNames())
	std := cliutil.StandardFlags(nil, 1_000_000)
	std.ManifestFlag(nil)
	flag.Parse()

	cliutil.Main("llcsim", func(ctx context.Context) (err error) {
		ctx, cancel := std.WithTimeout(ctx)
		defer cancel()
		obs, err := std.StartObservability("llcsim")
		if err != nil {
			return err
		}
		defer func() {
			if cerr := obs.Close(err); err == nil {
				err = cerr
			}
		}()
		ctx = obs.Context(ctx)
		if names := artifactSel.Names(); len(names) > 0 {
			return runArtifacts(ctx, obs, std, names, *contention)
		}
		if *estimate {
			return runEstimate(ctx, obs, std, *wl, *threads, *contention)
		}
		return run(ctx, obs, *wl, *llc, *config, std.Accesses, *threads, *cores, std.Seed, *contention, *wear, *faults || *prewear > 0, *prewear, *mainMemTech, *hybridWays, *timeline || *timelineCSV != "", *timelineCSV)
	})
}

// runArtifacts dispatches to the sweep registry: the same tables and
// figures cmd/figures prints, reachable from llcsim by name.
func runArtifacts(ctx context.Context, obs *cliutil.Observability, std *cliutil.Flags, names []string, contention bool) error {
	eng := std.Engine(obs.EngineOptions()...)
	obs.TrackEngine(eng)
	cfg := sweep.Config{
		Opts:            workload.Options{Accesses: std.Accesses, Seed: std.Seed},
		WriteContention: contention,
		Engine:          eng,
		Telemetry:       obs.Registry,
	}
	for _, name := range names {
		res, err := sweep.Run(ctx, name, cfg)
		if err != nil {
			return err
		}
		renderers := make([]cliutil.Renderer, len(res.Renderers))
		for i, r := range res.Renderers {
			renderers[i] = r
		}
		if err := cliutil.RenderAll(os.Stdout, renderers...); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runEstimate runs the profile-validation study for one workload: a
// capacity ladder of SRAM-class LLCs simulated exactly, against one
// reuse-distance profile predicting all of them.
func runEstimate(ctx context.Context, obs *cliutil.Observability, std *cliutil.Flags, wl string, threads int, contention bool) error {
	eng := std.Engine(obs.EngineOptions()...)
	obs.TrackEngine(eng)
	cfg := sweep.Config{
		Opts:            workload.Options{Accesses: std.Accesses, Threads: threads, Seed: std.Seed},
		WriteContention: contention,
		Engine:          eng,
		Telemetry:       obs.Registry,
	}
	study, err := sweep.Estimate(ctx, cfg, sweep.EstimateOptions{Workload: wl})
	if err != nil {
		return err
	}
	return cliutil.RenderAll(os.Stdout, sweep.RenderEstimate(study))
}

func run(ctx context.Context, obs *cliutil.Observability, wl, llc, config string, accesses, threads, cores int, seed int64, contention, wear, faults bool, prewear float64, mainMemTech string, hybridSRAMWays int, timeline bool, timelineCSV string) error {
	models := reference.FixedCapacityModels()
	if config == "area" {
		models = reference.FixedAreaModels()
	} else if config != "cap" {
		return fmt.Errorf("unknown -config %q (want cap or area)", config)
	}
	model, err := reference.ModelByName(models, llc)
	if err != nil {
		return err
	}
	profile, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	genOpts := workload.Options{Accesses: accesses, Threads: threads, Seed: seed}
	gen, err := workload.NewGenerator(profile, genOpts)
	if err != nil {
		return err
	}
	cfg := system.Gainestown(model).WithCores(cores)
	cfg.ModelWriteContention = contention
	cfg.TrackWear = wear
	if timeline {
		cfg.Timeline = &system.TimelineConfig{}
		cfg.TrackWear = true // the per-set wear heatmap rides the sampler
	}
	if faults {
		cfg.Fault = fault.Config{
			Options:       fault.Options{Class: model.Class},
			PreWearWrites: prewear,
		}
		if !cfg.Fault.Enabled() {
			fmt.Fprintf(os.Stderr, "llcsim: -faults has no effect on %s (infinite write endurance)\n", model.Class)
		}
	}
	if hybridSRAMWays > 0 {
		cfg.Hybrid = &system.HybridConfig{
			SRAM:     reference.SRAMBaseline(),
			NVM:      model,
			SRAMWays: hybridSRAMWays,
		}
		cfg.TrackWear = false // unsupported in hybrid mode
	}
	var nvMainMem *mainmem.Memory
	if mainMemTech != "" {
		tech, err := parseMainMemTech(mainMemTech)
		if err != nil {
			return err
		}
		nvMainMem, err = mainmem.New(mainmem.Preset(tech))
		if err != nil {
			return err
		}
		cfg.Memory = nvMainMem
	}
	// Run through the engine (rather than system.Run directly) so the
	// design point gets the full telemetry treatment: a simulate span, job
	// metrics, system-level counters and a manifest design_point event.
	eng := engine.New(obs.EngineOptions()...)
	obs.TrackEngine(eng)
	r, err := eng.Run(ctx, engine.StreamJob(profile, genOpts, cfg))
	if err != nil {
		return err
	}

	meta := gen.Meta()
	fmt.Printf("%s on %s (%s, %d cores, %d accesses, %d threads)\n\n",
		r.Workload, r.LLCName, config, cores, meta.Accesses, meta.Threads)
	t := tablefmt.New("Result", "metric", "value")
	t.AddRowf("execution time [ms]", r.TimeNS/1e6)
	t.AddRowf("instructions", r.Instructions)
	t.AddRowf("LLC hits", r.LLC.Hits)
	t.AddRowf("LLC misses", r.LLC.Misses)
	t.AddRowf("LLC writes (fills+wb)", r.LLC.Writes)
	t.AddRowf("LLC MPKI", r.LLCMPKI())
	t.AddRowf("L1I", r.L1I.String())
	t.AddRowf("L1D", r.L1D.String())
	t.AddRowf("L2", r.L2.String())
	t.AddRowf("DRAM reads", r.DRAM.Reads)
	t.AddRowf("DRAM writes", r.DRAM.Writes)
	t.AddRowf("LLC dynamic energy [mJ]", r.LLCDynamicJ*1e3)
	t.AddRowf("LLC leakage energy [mJ]", r.LLCLeakageJ*1e3)
	t.AddRowf("LLC total energy [mJ]", r.LLCEnergyJ()*1e3)
	t.AddRowf("EDP [J*s]", r.EDP())
	t.AddRowf("ED2P [J*s^2]", r.ED2P())
	t.AddRowf("memory stall [ms]", r.MemStallNS/1e6)
	if r.Hybrid != nil {
		h := r.Hybrid
		t.AddRowf("hybrid SRAM/NVM hits", fmt.Sprintf("%d / %d", h.SRAMHits, h.NVMHits))
		t.AddRowf("hybrid SRAM/NVM writes", fmt.Sprintf("%d / %d", h.SRAMWrites, h.NVMWrites))
		t.AddRowf("hybrid migrations/demotions", fmt.Sprintf("%d / %d", h.Migrations, h.Demotions))
	}
	if nvMainMem != nil {
		ms := nvMainMem.Stats()
		t.AddRowf("main memory tech", nvMainMem.Tech().String())
		t.AddRowf("main memory row hit rate", ms.RowHitRate())
		t.AddRowf("main memory energy [mJ]", nvMainMem.EnergyJ(r.TimeNS)*1e3)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if d := r.Degradation; d != nil {
		fmt.Println()
		ft := tablefmt.New("Wear-driven faults and degradation", "metric", "value")
		ft.AddRowf("endurance [writes/cell]", d.EnduranceWrites)
		ft.AddRowf("ways condemned (pre-aged)", d.InitialDisabledWays)
		ft.AddRowf("ways condemned (runtime)", d.CondemnedWays)
		ft.AddRowf("dead sets", d.DeadSets)
		ft.AddRowf("write-verify retries", d.WriteRetries)
		ft.AddRowf("lines lost to faults", d.FailedWrites)
		ft.AddRowf("dead-set accesses", d.DeadSetAccesses+d.DeadSetWrites)
		ft.AddRowf("effective capacity", d.CapacityFraction())
		if err := ft.Render(os.Stdout); err != nil {
			return err
		}
	}
	if r.Wear != nil {
		est, err := endurance.Estimate(r, endurance.Options{Class: model.Class})
		if err != nil {
			return err
		}
		fmt.Println()
		w := tablefmt.New("Write wear and lifetime projection", "metric", "value")
		w.AddRowf("lines written", r.Wear.LinesTouched)
		w.AddRowf("hottest line writes", r.Wear.MaxLineWrites)
		w.AddRowf("hottest set writes", r.Wear.MaxSetWrites)
		w.AddRowf("imbalance factor", r.Wear.ImbalanceFactor())
		w.AddRowf("raw lifetime [years]", est.RawYears)
		w.AddRowf("wear-leveled lifetime [years]", est.LeveledYears)
		if err := w.Render(os.Stdout); err != nil {
			return err
		}
	}
	if r.Timeline != nil {
		if err := renderTimeline(os.Stdout, r); err != nil {
			return err
		}
		if timelineCSV != "" {
			return exportTimelineCSV(timelineCSV, r)
		}
	}
	return nil
}

// parseMainMemTech maps a flag value to a technology preset.
func parseMainMemTech(s string) (mainmem.Tech, error) {
	switch s {
	case "dram":
		return mainmem.DRAM, nil
	case "pcram", "pcm":
		return mainmem.PCRAMMem, nil
	case "sttram", "stt":
		return mainmem.STTRAMMem, nil
	case "rram":
		return mainmem.RRAMMem, nil
	}
	return 0, fmt.Errorf("unknown main memory technology %q", s)
}
