// Package dram models the paper's main memory: 4 distributed DRAM
// controllers, each providing up to 7.6 GB/s, behind the shared LLC
// (Table IV). The model is a fixed access latency plus per-controller
// bandwidth queueing: each 64B transfer occupies its controller for
// blockBytes/bandwidth, and requests arriving at a busy controller wait.
package dram

import "fmt"

// Config describes the memory system.
type Config struct {
	// Controllers is the number of distributed DRAM controllers.
	Controllers int
	// BandwidthGBps is the per-controller peak bandwidth.
	BandwidthGBps float64
	// LatencyNS is the unloaded access latency (row access + channel).
	LatencyNS float64
	// BlockBytes is the transfer granularity (the LLC line size).
	BlockBytes int
}

// Gainestown returns the paper's memory configuration: 4 controllers at
// 7.6 GB/s with 64B lines. The 65 ns unloaded latency is a typical DDR3
// figure for the Xeon x5550 era.
func Gainestown() Config {
	return Config{Controllers: 4, BandwidthGBps: 7.6, LatencyNS: 65, BlockBytes: 64}
}

// Stats counts memory traffic.
type Stats struct {
	// Reads and Writes count transfers by direction.
	Reads, Writes uint64
	// TotalWaitNS accumulates queueing delay across all requests.
	TotalWaitNS float64
}

// Memory is the simulated main memory.
type Memory struct {
	cfg         Config
	serviceNS   float64
	busyUntilNS []float64
	stats       Stats
	onWait      func(waitNS float64)
}

// Validate checks the configuration; New runs it, and so does
// system.Config.Validate for the default main memory.
func (cfg Config) Validate() error {
	if cfg.Controllers <= 0 {
		return fmt.Errorf("dram: controllers = %d, want positive", cfg.Controllers)
	}
	if cfg.BandwidthGBps <= 0 {
		return fmt.Errorf("dram: bandwidth = %g, want positive", cfg.BandwidthGBps)
	}
	if cfg.LatencyNS <= 0 {
		return fmt.Errorf("dram: latency = %g, want positive", cfg.LatencyNS)
	}
	if cfg.BlockBytes <= 0 {
		return fmt.Errorf("dram: block bytes = %d, want positive", cfg.BlockBytes)
	}
	return nil
}

// New builds a memory model.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Memory{
		cfg:         cfg,
		serviceNS:   float64(cfg.BlockBytes) / cfg.BandwidthGBps, // bytes / (GB/s) = ns
		busyUntilNS: make([]float64, cfg.Controllers),
	}, nil
}

// controller statically maps a line address to a controller.
func (m *Memory) controller(lineAddr uint64) int {
	return int(lineAddr % uint64(len(m.busyUntilNS)))
}

// Read issues a read of the line at the given time and returns the
// completion time (arrival + queueing + latency).
func (m *Memory) Read(nowNS float64, lineAddr uint64) float64 {
	m.stats.Reads++
	return m.transfer(nowNS, lineAddr)
}

// Write issues a writeback. Writebacks are posted (the caller does not
// wait), but they still occupy controller bandwidth; the returned time is
// when the transfer completes.
func (m *Memory) Write(nowNS float64, lineAddr uint64) float64 {
	m.stats.Writes++
	return m.transfer(nowNS, lineAddr)
}

func (m *Memory) transfer(nowNS float64, lineAddr uint64) float64 {
	c := m.controller(lineAddr)
	start := nowNS
	if b := m.busyUntilNS[c]; b > start {
		start = b
	}
	m.stats.TotalWaitNS += start - nowNS
	if m.onWait != nil {
		m.onWait(start - nowNS)
	}
	m.busyUntilNS[c] = start + m.serviceNS
	return start + m.cfg.LatencyNS
}

// SetWaitHook installs a per-request observer of queueing delay (the
// time a transfer waited for its controller, excluding the fixed access
// latency). The system simulator feeds it a telemetry histogram so run
// manifests can report queue-latency quantiles. A nil hook disables
// observation (the default).
func (m *Memory) SetWaitHook(fn func(waitNS float64)) { m.onWait = fn }

// Stats returns the accumulated counters.
func (m *Memory) Stats() Stats { return m.stats }

// ServiceNS returns the per-transfer controller occupancy.
func (m *Memory) ServiceNS() float64 { return m.serviceNS }

// AvgWaitNS returns the mean queueing delay per request.
func (m *Memory) AvgWaitNS() float64 {
	n := m.stats.Reads + m.stats.Writes
	if n == 0 {
		return 0
	}
	return m.stats.TotalWaitNS / float64(n)
}
