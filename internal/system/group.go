package system

// Which Config fields a functional walk reads. A single-threaded run's
// hit, miss, eviction and writeback sequence depends on the trace and on
// the functional fields only: cache geometry and policies, the LLC's
// capacity, wear tracking, faults, bypass, the hybrid LLC, coherence and
// timeline sampling. The timing-only fields — the core model and count,
// the L2 latency, the LLC model's latencies, energies and labels, the
// bank count, write contention, DRAM, a custom main memory and the
// telemetry registry — only price those events. With one thread nothing
// in the walk reads a clock (the scheduler has one core to pick), so
// configs that differ only in timing-only fields can share one walk.

import (
	"nvmllc/internal/cpu"
	"nvmllc/internal/dram"
	"nvmllc/internal/nvsim"
)

// machine is c with every timing-only field cleared.
func (c Config) machine() Config {
	c.Cores = 0
	c.Core = cpu.Params{}
	c.L2LatencyNS = 0
	c.LLC = nvsim.LLCModel{CapacityBytes: c.LLC.CapacityBytes}
	c.LLCBanks = 0
	c.DRAM = dram.Config{}
	c.Memory = nil
	c.ModelWriteContention = false
	c.Telemetry = nil
	return c
}

// SameMachine reports whether c and o differ only in timing-only fields,
// so that one functional walk of a single-threaded trace serves both.
// Pointer fields compare by the values they point to.
func (c Config) SameMachine(o Config) bool {
	a, b := c.machine(), o.machine()
	if !equalPtr(a.Hybrid, b.Hybrid) || !equalPtr(a.Timeline, b.Timeline) {
		return false
	}
	a.Hybrid, b.Hybrid = nil, nil
	a.Timeline, b.Timeline = nil, nil
	return a == b
}

func equalPtr[T comparable](a, b *T) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// Groupable reports whether c may join a group of more than one config
// (RunStreamGroup). Timeline sampling reads one backend's DRAM counters,
// live fault telemetry feeds one registry, a custom main memory is one
// stateful object no two backends can share, and bypass and the hybrid
// LLC run with one backend alongside them, so the shared walk is the
// paper's plain LLC.
func (c Config) Groupable() bool {
	return c.Timeline == nil && !c.Fault.Enabled() && c.LLCBypass == BypassNone &&
		c.Hybrid == nil && c.Memory == nil
}
