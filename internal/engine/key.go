package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Key returns the deterministic cache key for a job and whether the job
// is cacheable at all.
//
// The key hashes the trace's provenance — workload name plus the
// resolved workload.Options it was generated with, so equivalent
// spellings of one trace share a key — and the full system.Config
// value (core model, cache geometry, LLC model, policies, DRAM
// parameters; the hybrid configuration is hashed by value when present).
// Two jobs with equal keys are guaranteed to simulate identically,
// because trace generation and the simulator are both deterministic in
// those inputs.
//
// A job is not cacheable when it opts out via NoCache or when
// Config.Memory carries an external main-memory model: such models
// accumulate state across runs (row-buffer statistics, energy), so their
// results are not reusable and the key cannot capture them.
func Key(j Job) (string, bool) {
	if j.NoCache || j.Config.Memory != nil {
		return "", false
	}
	h := sha256.New()
	fmt.Fprintf(h, "workload=%s\nopts=%+v\n", j.Workload, j.TraceOpts)
	cfg := j.Config
	hybrid := cfg.Hybrid
	cfg.Hybrid = nil    // pointer field: hash the pointee, not the address
	cfg.Telemetry = nil // observation only: never part of the result identity
	cfg.Timeline = nil  // observation only, like Telemetry: sampling never
	// alters simulation behavior, so a sampled and an unsampled job share
	// one key (Run upgrades a cached timeline-less result on demand)
	fmt.Fprintf(h, "config=%+v\n", cfg)
	if hybrid != nil {
		fmt.Fprintf(h, "hybrid=%+v\n", *hybrid)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}
