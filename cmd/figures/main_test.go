package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"nvmllc/internal/cliutil"
	"nvmllc/internal/sweep"
	"nvmllc/internal/workload"
)

func smallCfg() sweep.Config {
	return sweep.Config{Opts: workload.Options{Accesses: 20000, Seed: 2}}
}

func TestArtifactTableV(t *testing.T) {
	out := capture(t, func() error { return renderArtifact(context.Background(), "table5", smallCfg()) })
	if !strings.Contains(out, "Table V") || !strings.Contains(out, "deepsjeng") {
		t.Error("Table V output malformed")
	}
}

func TestArtifactTableVI(t *testing.T) {
	out := capture(t, func() error { return renderArtifact(context.Background(), "table6", smallCfg()) })
	if !strings.Contains(out, "Table VI") || !strings.Contains(out, "paper values") {
		t.Error("Table VI output malformed")
	}
}

func TestArtifactFigure(t *testing.T) {
	out := capture(t, func() error { return renderArtifact(context.Background(), "fig1a", smallCfg()) })
	for _, want := range []string{"Figure 1a", "normalized speedup", "normalized LLC energy", "normalized ED2P"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q", want)
		}
	}
}

func TestArtifactFigure4(t *testing.T) {
	out := capture(t, func() error { return renderArtifact(context.Background(), "fig4", smallCfg()) })
	if !strings.Contains(out, "Figure 4(a)") || !strings.Contains(out, "H_wg") {
		t.Error("Figure 4 output malformed")
	}
}

func TestArtifactLifetime(t *testing.T) {
	out := capture(t, func() error { return renderArtifact(context.Background(), "lifetime", smallCfg()) })
	for _, want := range []string{"lifetime projection", "Kang_P", "Wear-rate correlation"} {
		if !strings.Contains(out, want) {
			t.Errorf("lifetime output missing %q", want)
		}
	}
}

func TestArtifactPredict(t *testing.T) {
	out := capture(t, func() error { return renderArtifact(context.Background(), "predict", smallCfg()) })
	for _, want := range []string{"Energy prediction", "deepsjeng", "mean relative error"} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output missing %q", want)
		}
	}
}

func TestCoreSweepRenderers(t *testing.T) {
	// The full coresweep artifact runs six workloads at six core counts;
	// exercise the same rendering on one small sweep instead.
	out := capture(t, func() error {
		res, err := sweep.CoreSweep(context.Background(), "ft", []int{1, 2}, smallCfg())
		if err != nil {
			return err
		}
		renderers := sweep.CoreSweepRenderers("ft", res)
		out := make([]cliutil.Renderer, len(renderers))
		for i, r := range renderers {
			out[i] = r
		}
		return cliutil.RenderAll(os.Stdout, out...)
	})
	if !strings.Contains(out, "Core sweep (ft") {
		t.Errorf("core sweep output malformed:\n%s", out[:min(200, len(out))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestArtifactAblations(t *testing.T) {
	out := capture(t, func() error { return renderArtifact(context.Background(), "ablations", smallCfg()) })
	for _, want := range []string{"Design-lever ablations", "dead-block bypass", "hybrid"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestSelectArtifactsExactlyOnce pins the dedup contract: an artifact
// named twice (-artifact fig1a,table5 -artifact fig1a) runs exactly
// once, and the run list follows registry order.
func TestSelectArtifactsExactlyOnce(t *testing.T) {
	run, defaulted := selectArtifacts([]string{"fig1a", "table5", "fig1a"}, false, false)
	if defaulted {
		t.Error("explicit selection reported as defaulted")
	}
	counts := map[string]int{}
	for _, name := range run {
		counts[name]++
	}
	if counts["fig1a"] != 1 {
		t.Errorf("fig1a selected twice appears %d times, want exactly 1 (run=%v)", counts["fig1a"], run)
	}
	if counts["table5"] != 1 || len(run) != 2 {
		t.Errorf("run = %v, want exactly [table5 fig1a] in registry order", run)
	}
	// Registry order puts table5 before fig1a.
	if run[0] != "table5" || run[1] != "fig1a" {
		t.Errorf("run order = %v, want registry order [table5 fig1a]", run)
	}
}

// TestSelectArtifactsSurfaces covers the remaining selection logic:
// -all (minus the opt-in measured Figure 4), the measured swap, and the
// table5 default.
func TestSelectArtifactsSurfaces(t *testing.T) {
	run, defaulted := selectArtifacts(nil, false, false)
	if !defaulted || len(run) != 1 || run[0] != "table5" {
		t.Errorf("empty selection: run=%v defaulted=%v, want [table5] true", run, defaulted)
	}

	run, _ = selectArtifacts(nil, true, false)
	seen := map[string]bool{}
	for _, name := range run {
		if seen[name] {
			t.Errorf("-all selected %s twice", name)
		}
		seen[name] = true
	}
	if seen["fig4measured"] {
		t.Error("-all must not select the opt-in fig4measured")
	}
	if !seen["fig4"] || !seen["table5"] {
		t.Errorf("-all missing core artifacts: %v", run)
	}

	run, _ = selectArtifacts([]string{"fig4"}, false, true)
	if len(run) != 1 || run[0] != "fig4measured" {
		t.Errorf("-measuredfeatures swap: run=%v, want [fig4measured]", run)
	}
}

// TestSelectedArtifactRendersOnce closes the loop at the execution
// layer: driving the selection through renderArtifact, the doubly
// selected artifact prints its output exactly once.
func TestSelectedArtifactRendersOnce(t *testing.T) {
	run, _ := selectArtifacts([]string{"table5", "table5"}, false, false)
	out := capture(t, func() error {
		for _, name := range run {
			if err := renderArtifact(context.Background(), name, smallCfg()); err != nil {
				return err
			}
		}
		return nil
	})
	if got := strings.Count(out, "Table V:"); got != 1 {
		t.Errorf("doubly selected table5 rendered %d times, want exactly 1", got)
	}
}

func TestUnknownArtifact(t *testing.T) {
	err := renderArtifact(context.Background(), "nope", smallCfg())
	if err == nil || !strings.Contains(err.Error(), "unknown artifact") {
		t.Errorf("want unknown-artifact error, got %v", err)
	}
}
