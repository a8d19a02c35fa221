package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzBuildSimJob feeds arbitrary bytes through the submission path's
// spec decoder (decodeSpec: unknown fields rejected, 1 MiB cap) and
// compiles whatever decodes with buildSimJob. Neither may panic, and
// every spec buildSimJob accepts must compile to a machine that
// system.Config.Validate accepts, with a resolved thread count that
// fits its cores, so admission never queues a job the generator or the
// simulator would refuse. Jobs are only built, never run. The seed
// corpus under testdata/fuzz holds a minimal valid spec, a fully
// specified hybrid spec, the 65-core spec, the 65-thread spec, 8
// threads on the default 4 cores and an unknown field.
func FuzzBuildSimJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(raw))
		var spec JobSpec
		if err := decodeSpec(req, &spec); err != nil {
			return
		}
		j, err := buildSimJob(spec, 20000)
		if err != nil {
			return
		}
		if err := j.Config.Validate(); err != nil {
			t.Fatalf("accepted spec %+v compiles to an invalid machine: %v", spec, err)
		}
		if j.TraceOpts.Threads < 1 || j.TraceOpts.Threads > j.Config.Cores {
			t.Fatalf("accepted spec %+v resolves to %d threads on %d cores", spec, j.TraceOpts.Threads, j.Config.Cores)
		}
		if j.Workload != spec.Workload || j.Source == nil {
			t.Errorf("accepted spec %+v compiled to job for %q (source set: %v)", spec, j.Workload, j.Source != nil)
		}
	})
}
