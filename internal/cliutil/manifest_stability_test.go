package cliutil

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nvmllc/internal/engine"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// runManifestTrial simulates a small fixed-seed design-point grid
// sequentially (parallelism 1, so manifest event order is the submission
// order) and writes the JSONL manifest to path.
func runManifestTrial(t *testing.T, path string) {
	t.Helper()
	f := &Flags{Manifest: path}
	o, err := f.StartObservability("golden")
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{Accesses: 20_000, Seed: 7}
	p, err := workload.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []engine.Job
	for _, m := range reference.FixedCapacityModels()[:3] {
		jobs = append(jobs, engine.StreamJob(p, opts, system.Gainestown(m)))
	}
	eng := engine.New(append(o.EngineOptions(), engine.WithParallelism(1))...)
	if _, err := eng.RunAll(o.Context(context.Background()), jobs); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// stripVolatile removes the wall-clock fields — the only parts of a
// fixed-seed manifest that may differ between runs — and re-marshals
// each line (map marshaling sorts keys, so output is canonical).
func stripVolatile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("manifest line is not JSON: %v (%q)", err, sc.Text())
		}
		delete(m, "unix_ms")
		delete(m, "wall_ns")
		line, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestManifestStableAcrossRuns is the manifest "golden" check: two runs
// with the same seed must produce byte-identical JSONL modulo the
// wall-clock fields. Comparing run-against-run (instead of a stored
// file) keeps the test valid as simulator internals evolve while still
// catching nondeterminism in keys, stats or event ordering.
func TestManifestStableAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	runManifestTrial(t, a)
	runManifestTrial(t, b)
	sa, sb := stripVolatile(t, a), stripVolatile(t, b)
	if !bytes.Equal(sa, sb) {
		t.Errorf("fixed-seed manifests differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sa, sb)
	}

	// Every design_point event carries the full observability payload:
	// the config key, per-level cache rates and the DRAM wait summary.
	sc := bufio.NewScanner(bytes.NewReader(sa))
	points := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m["event"] != "design_point" {
			continue
		}
		points++
		if m["key"] == "" || m["key"] == nil {
			t.Errorf("design_point missing config key: %v", m)
		}
		levels, ok := m["levels"].(map[string]any)
		if !ok || levels["L1D"] == nil || levels["LLC"] == nil {
			t.Errorf("design_point missing per-level rates: %v", m)
		}
		if m["dram"] == nil {
			t.Errorf("design_point missing DRAM summary: %v", m)
		}
	}
	if points != 3 {
		t.Errorf("manifest has %d design points, want 3", points)
	}
}
