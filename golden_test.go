package nvmllc_test

// Golden artifact digests: the rendered text of every registered
// artifact, regenerated at a small fixed scale, is pinned to
// testdata/golden/artifacts.sha256. The check lives at the module root
// rather than in internal/sweep so the race-detector pass over that
// package does not have to regenerate every artifact as well.

import (
	"bytes"
	"context"
	"testing"

	"nvmllc/internal/engine"
	"nvmllc/internal/golden"
	"nvmllc/internal/sweep"
	"nvmllc/internal/workload"
)

// goldenOpts is the fixed scale every artifact is pinned at: small enough
// to regenerate all of them in a tier-1 run, large enough that every
// study produces non-trivial tables.
var goldenOpts = workload.Options{Accesses: 20000, Seed: 1}

// TestGoldenArtifacts runs every registered artifact through one shared
// engine, as cmd/figures does, so cross-artifact memo hits are part of
// what is pinned, and renders each one the way cmd/figures prints it.
func TestGoldenArtifacts(t *testing.T) {
	cfg := sweep.Config{Opts: goldenOpts, Engine: engine.New()}
	got := make(map[string]string)
	for _, a := range sweep.Artifacts() {
		res, err := sweep.Run(context.Background(), a.Name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		var buf bytes.Buffer
		for i, r := range res.Renderers {
			if i > 0 {
				buf.WriteByte('\n')
			}
			if err := r.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		got[a.Name] = golden.Digest(buf.Bytes())
	}
	golden.Check(t, "artifacts.sha256", got)
}
