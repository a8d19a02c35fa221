package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"nvmllc/internal/workload"
)

// minimalScale runs every part of the benchmark on the smallest inputs.
var minimalScale = scale{gridAccesses: 1000, studiesAccesses: 1000, referenceAccesses: 1000,
	jobs: 8, jobAccesses: 1000, recheck: 2, probeAccesses: 2000,
	shareAccesses: 2000, legAccesses: 2000, pairs: 2}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func names(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at minimal size, untraced and traced, and
// checks that each emits exactly the declared metrics with their units
// and that nothing failed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: time.Nanosecond, trace: traced, workdir: t.TempDir(), sc: minimalScale}
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v): metrics %v, want %v", w, traced, names(got), names(want))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			if !traced && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v, want 1", w, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestSeedChangesInputs checks that the seed argument changes the
// generated inputs, and so the outputs, but not the set of metrics.
func TestSeedChangesInputs(t *testing.T) {
	if reflect.DeepEqual(jobList(1, 50, 1000), jobList(2, 50, 1000)) {
		t.Error("llcsimd job list does not depend on the seed")
	}
	digests := map[int64]map[string]string{}
	metricNames := map[int64][]string{}
	for _, seed := range []int64{1, 2} {
		var tl tally
		opts := workload.Options{Accesses: minimalScale.gridAccesses, Seed: seed + 1}
		run, err := runSweeps(context.Background(), []string{"table5", "fig1a"}, opts, 0, nil, &tl)
		if err != nil {
			t.Fatal(err)
		}
		digests[seed] = run.digests()
		m := metricSet{}
		run.endToEnd(m)
		for name := range m {
			metricNames[seed] = append(metricNames[seed], name)
		}
		sort.Strings(metricNames[seed])
	}
	for name, d := range digests[1] {
		if d == digests[2][name] {
			t.Errorf("%s renders the same text for seeds 1 and 2", name)
		}
	}
	if !reflect.DeepEqual(metricNames[1], metricNames[2]) {
		t.Errorf("metric sets differ between seeds: %v vs %v", metricNames[1], metricNames[2])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestCoverage(t *testing.T) {
	iv := [][2]int64{{0, 4}, {2, 6}, {8, 20}}
	if got := coverage(iv, 1, 10); got != 7 { // [1,6) and [8,10)
		t.Errorf("coverage = %d, want 7", got)
	}
}
