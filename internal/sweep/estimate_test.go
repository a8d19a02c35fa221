package sweep

import (
	"context"
	"testing"

	"nvmllc/internal/workload"
)

// TestEstimateSingleThreadedExact: the profile filter replicates the
// simulator's private-level walk access for access, so on a
// single-threaded workload (no coherence) the profile's predicted hits
// equal the exact simulator's at every ladder geometry.
func TestEstimateSingleThreadedExact(t *testing.T) {
	cfg := Config{Opts: workload.Options{Accesses: 20000, Seed: 3}}
	study, err := Estimate(context.Background(), cfg, EstimateOptions{Workload: "bzip2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(study.Rows))
	}
	for _, r := range study.Rows {
		if r.PredHits != r.ExactHits {
			t.Errorf("%d×%d: predicted hits %d, exact %d (single-threaded filter must be exact)",
				r.Sets, r.Ways, r.PredHits, r.ExactHits)
		}
	}
	if study.MaxAbsRateErr != 0 {
		t.Errorf("max |Δhit rate| = %.4f pp, want 0 for a single-threaded workload", study.MaxAbsRateErr)
	}
}
