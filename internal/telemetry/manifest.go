package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// ManifestLevel is one cache level's statistics in a manifest event.
type ManifestLevel struct {
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	HitRate    float64 `json:"hit_rate"`
	Writebacks uint64  `json:"writebacks,omitempty"`
	Fills      uint64  `json:"fills,omitempty"`
	Writes     uint64  `json:"writes,omitempty"`
}

// ManifestDRAM summarizes main-memory traffic and queue latency for one
// design point.
type ManifestDRAM struct {
	Reads     uint64  `json:"reads"`
	Writes    uint64  `json:"writes"`
	AvgWaitNS float64 `json:"avg_wait_ns"`
	// WaitP50NS/P90NS/P99NS/MaxNS summarize the per-request queueing
	// delay distribution.
	WaitP50NS float64 `json:"wait_p50_ns"`
	WaitP90NS float64 `json:"wait_p90_ns"`
	WaitP99NS float64 `json:"wait_p99_ns"`
	WaitMaxNS float64 `json:"wait_max_ns"`
}

// ManifestEvent is one line of a JSONL run manifest. Event is
// "run_start", "design_point" or "run_end"; unused fields are omitted.
// Wall-clock fields (UnixMS, WallNS) are the only non-deterministic
// parts of a fixed-seed run.
type ManifestEvent struct {
	Event   string `json:"event"`
	Tool    string `json:"tool,omitempty"`
	Version string `json:"version,omitempty"`
	UnixMS  int64  `json:"unix_ms,omitempty"`

	// Design-point identity: workload, LLC model and the engine's
	// deterministic config key ("" for uncacheable jobs).
	Workload string `json:"workload,omitempty"`
	LLC      string `json:"llc,omitempty"`
	Key      string `json:"key,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Error    string `json:"error,omitempty"`

	// WallNS is host wall-clock simulation time; TimeNS simulated time.
	WallNS        int64   `json:"wall_ns,omitempty"`
	Cores         int     `json:"cores,omitempty"`
	TimeNS        float64 `json:"time_ns,omitempty"`
	Instructions  uint64  `json:"instructions,omitempty"`
	MPKI          float64 `json:"mpki,omitempty"`
	WriteFraction float64 `json:"write_fraction,omitempty"`
	LLCEnergyJ    float64 `json:"llc_energy_j,omitempty"`

	Levels map[string]ManifestLevel `json:"levels,omitempty"`
	DRAM   *ManifestDRAM            `json:"dram,omitempty"`

	// Timeline carries the design point's epoch-sampled series when the
	// run was configured with time-resolved sampling.
	Timeline *TimelineSnapshot `json:"timeline,omitempty"`

	// Jobs is the design-point event count (run_end only).
	Jobs int `json:"jobs,omitempty"`

	// Engine is the final engine counter snapshot (run_end only, when
	// the tool registered its engine): how many design points simulated
	// vs cached, how many reuse-distance profiles ran or hit the profile
	// cache, and how many characterizations ran or hit the feature
	// cache.
	Engine *ManifestEngine `json:"engine,omitempty"`
}

// ManifestEngine mirrors engine.Stats for the run_end manifest event
// (declared here because telemetry sits below engine in the import
// graph).
type ManifestEngine struct {
	Simulated   uint64 `json:"simulated"`
	Cached      uint64 `json:"cached"`
	Failed      uint64 `json:"failed,omitempty"`
	TraceGens   uint64 `json:"trace_gens,omitempty"`
	TraceShared uint64 `json:"trace_shared,omitempty"`
	Profiles    uint64 `json:"profiles,omitempty"`
	ProfileHits uint64 `json:"profile_hits,omitempty"`
	Features    uint64 `json:"features,omitempty"`
	FeatureHits uint64 `json:"feature_hits,omitempty"`
}

// ManifestWriter emits JSONL manifest events. It is safe for concurrent
// use (engine progress callbacks run on worker goroutines) and safe on
// a nil receiver, so callers can thread an optional writer without nil
// checks.
type ManifestWriter struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	events int
	err    error
}

// NewManifestWriter wraps an io.Writer.
func NewManifestWriter(w io.Writer) *ManifestWriter {
	return &ManifestWriter{w: w}
}

// CreateManifest creates (truncating) the file at path and returns a
// writer that closes it on Close.
func CreateManifest(path string) (*ManifestWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create manifest: %w", err)
	}
	return &ManifestWriter{w: f, closer: f}, nil
}

// Write appends one event line. The first error is sticky: once a write
// fails, subsequent writes return the same error without writing. Safe
// on a nil receiver (no-op).
func (m *ManifestWriter) Write(ev ManifestEvent) error {
	if m == nil {
		return nil
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if _, err := m.w.Write(append(data, '\n')); err != nil {
		m.err = err
		return err
	}
	if ev.Event == "design_point" {
		m.events++
	}
	return nil
}

// Events returns the number of design_point events written.
func (m *ManifestWriter) Events() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// Close releases the underlying file (when CreateManifest opened one)
// and reports any sticky write error. Safe on a nil receiver.
func (m *ManifestWriter) Close() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	err := m.err
	closer := m.closer
	m.closer = nil
	m.mu.Unlock()
	if closer != nil {
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
