// Package serve is the long-running simulation service behind
// cmd/llcsimd: an HTTP API that accepts simulation and artifact jobs
// (single and batch), executes them asynchronously through one shared
// engine.Engine — so concurrent identical design points coalesce on the
// engine's singleflight cache, and a persistent engine.CacheStore makes
// results survive restarts — and answers submit → job id → poll/result.
//
// Robustness is the point of the package: the job queue is bounded and
// overflow is surfaced as HTTP 429 backpressure instead of unbounded
// memory growth; every job runs under the server's lifecycle context
// plus an optional per-job timeout, which propagates into the
// simulator's hot loop; a panicking job is isolated (the job fails, the
// worker survives); and Shutdown drains in-flight and queued work
// before returning. Queue depth, admission/rejection counters and an
// end-to-end latency histogram are published into the shared telemetry
// registry next to the engine's own instruments.
package serve

import (
	"fmt"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/fault"
	"nvmllc/internal/reference"
	"nvmllc/internal/sweep"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// JobSpec is the wire form of one job. Two kinds are accepted:
//
//   - "sim" (the default): one design point — a workload on an LLC
//     model — answered with the full system.Result;
//   - "artifact": a named sweep-registry artifact (table5, fig1a, ...),
//     answered with its rendered text.
//
// Zero-valued knobs take server defaults, so {"workload":"cg",
// "llc":"Jan_S"} is a complete submission.
type JobSpec struct {
	// Type selects the job kind: "sim" (default) or "artifact".
	Type string `json:"type,omitempty"`

	// Workload and LLC name the design point (Table V workload, Table
	// III model). Config selects the LLC configuration block: "cap"
	// (fixed-capacity, default) or "area" (fixed-area).
	Workload string `json:"workload,omitempty"`
	LLC      string `json:"llc,omitempty"`
	Config   string `json:"config,omitempty"`
	// Accesses, Threads, Cores and Seed shape the trace and machine
	// (defaults: server's DefaultAccesses, 4, 4, 1).
	Accesses int   `json:"accesses,omitempty"`
	Threads  int   `json:"threads,omitempty"`
	Cores    int   `json:"cores,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	// Contention, Wear, Timeline, Faults, PreWear and HybridSRAMWays
	// mirror the llcsim flags of the same names.
	Contention     bool    `json:"contention,omitempty"`
	Wear           bool    `json:"wear,omitempty"`
	Timeline       bool    `json:"timeline,omitempty"`
	Faults         bool    `json:"faults,omitempty"`
	PreWear        float64 `json:"prewear,omitempty"`
	HybridSRAMWays int     `json:"hybrid_sram_ways,omitempty"`

	// Artifact is the sweep-registry artifact name (type "artifact").
	Artifact string `json:"artifact,omitempty"`

	// TimeoutMS caps this job's execution; zero uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// kind normalizes Type.
func (s JobSpec) kind() string {
	if s.Type == "" {
		if s.Artifact != "" {
			return "artifact"
		}
		return "sim"
	}
	return s.Type
}

// timeout resolves the per-job execution cap against the server default.
func (s JobSpec) timeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return def
}

// buildSimJob validates a "sim" spec and compiles it to a streaming
// engine job (the trace is generated chunk-at-a-time per simulation, so
// the server holds O(chunk) trace memory per worker, and cache hits skip
// generation entirely).
func buildSimJob(s JobSpec, defaultAccesses int) (engine.Job, error) {
	var zero engine.Job
	if s.Workload == "" {
		return zero, fmt.Errorf("sim job: workload is required")
	}
	if s.LLC == "" {
		return zero, fmt.Errorf("sim job: llc is required")
	}
	profile, err := workload.ByName(s.Workload)
	if err != nil {
		return zero, err
	}
	models := reference.FixedCapacityModels()
	switch s.Config {
	case "", "cap":
	case "area":
		models = reference.FixedAreaModels()
	default:
		return zero, fmt.Errorf("sim job: unknown config block %q (want cap or area)", s.Config)
	}
	model, err := reference.ModelByName(models, s.LLC)
	if err != nil {
		return zero, err
	}
	accesses := s.Accesses
	if accesses <= 0 {
		accesses = defaultAccesses
	}
	cores := s.Cores
	if cores <= 0 {
		cores = 4
	}

	cfg := system.Gainestown(model).WithCores(cores)
	cfg.ModelWriteContention = s.Contention
	cfg.TrackWear = s.Wear
	if s.Timeline {
		cfg.Timeline = &system.TimelineConfig{}
		cfg.TrackWear = true // the per-set wear heatmap rides the sampler
	}
	if s.Faults || s.PreWear > 0 {
		cfg.Fault = fault.Config{
			Options:       fault.Options{Class: model.Class},
			PreWearWrites: s.PreWear,
		}
	}
	if s.HybridSRAMWays > 0 {
		cfg.Hybrid = &system.HybridConfig{
			SRAM:     reference.SRAMBaseline(),
			NVM:      model,
			SRAMWays: s.HybridSRAMWays,
		}
		cfg.TrackWear = false // unsupported in hybrid mode
	}
	// StreamJob resolves the thread count and seed defaults (4 and 1).
	opts := workload.Options{Accesses: accesses, Threads: s.Threads, Seed: s.Seed}
	return engine.StreamJob(profile, opts, cfg), nil
}

// validateArtifact checks the artifact name against the sweep registry.
func validateArtifact(name string) error {
	if name == "" {
		return fmt.Errorf("artifact job: artifact name is required")
	}
	for _, known := range sweep.ArtifactNames() {
		if known == name {
			return nil
		}
	}
	return fmt.Errorf("artifact job: unknown artifact %q", name)
}
