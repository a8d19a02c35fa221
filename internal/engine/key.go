package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"nvmllc/internal/cpu"
	"nvmllc/internal/dram"
	"nvmllc/internal/fault"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/system"
	"nvmllc/internal/workload"
)

// keyBufBytes sizes Key's stack buffer. A hybrid paper machine encodes
// in about 600 bytes; only unusually long names spill to the heap.
const keyBufBytes = 1024

// Key returns the deterministic cache key for a job and whether the job
// is cacheable at all.
//
// The key hashes the trace's provenance — workload name plus the
// resolved workload.Options it was generated with, so equivalent
// spellings of one trace share a key — and every system.Config field
// that shapes the result (core model, cache geometry, LLC model,
// policies, DRAM parameters; the hybrid configuration is hashed by value
// when present), plus the resolved timeline config when the job asks for
// one. Two jobs with equal keys are guaranteed to simulate identically,
// because trace generation and the simulator are both deterministic in
// those inputs.
//
// The fields are written in a fixed order as fixed-width little-endian
// integers, IEEE-754 bit patterns and length-prefixed strings, so the
// encoding is unambiguous and a memo hit costs one SHA-256 over a few
// hundred stack bytes. TestKeyCoversEveryField perturbs every field of
// the inputs and fails when one is missing here.
//
// A job is not cacheable when it opts out via NoCache or when
// Config.Memory carries an external main-memory model: such models
// accumulate state across runs (row-buffer statistics, energy), so their
// results are not reusable and the key cannot capture them.
func Key(j Job) (string, bool) {
	if j.NoCache || j.Config.Memory != nil {
		return "", false
	}
	var buf [keyBufBytes]byte
	sum := sha256.Sum256(appendJobKey(buf[:0], j))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), true
}

// appendJobKey encodes the job's key inputs. Config.Telemetry is
// observation only and never part of the result identity. Config.Timeline
// never alters simulation behavior either, but it shapes Result.Timeline
// and Result.WearHeatmap, so a job with a timeline is a design point of
// its own: its resolved config is encoded last. A job without one
// encodes nothing for it, so the keys that name stored timeline-less
// entries stay valid (TestKeyStableWithoutTimeline). Config.Memory makes
// a job uncacheable (Key).
func appendJobKey(b []byte, j Job) []byte {
	b = appendString(b, j.Workload)
	b = appendOptions(b, j.TraceOpts)
	c := &j.Config
	b = appendInt(b, int64(c.Cores))
	b = appendCore(b, c.Core)
	b = appendInt(b, int64(c.BlockBytes))
	b = appendInt(b, c.L1IBytes)
	b = appendInt(b, int64(c.L1IWays))
	b = appendInt(b, c.L1DBytes)
	b = appendInt(b, int64(c.L1DWays))
	b = appendInt(b, c.L2Bytes)
	b = appendInt(b, int64(c.L2Ways))
	b = appendFloat(b, c.L2LatencyNS)
	b = appendLLC(b, &c.LLC)
	b = appendInt(b, int64(c.LLCWays))
	b = appendInt(b, int64(c.LLCBanks))
	b = appendDRAM(b, c.DRAM)
	b = appendBool(b, c.ModelWriteContention)
	b = appendBool(b, c.TrackWear)
	b = appendFault(b, c.Fault)
	b = appendInt(b, int64(c.LLCPolicy))
	b = appendInt(b, int64(c.LLCBypass))
	b = appendBool(b, c.DisableCoherence)
	b = appendHybrid(b, c.Hybrid)
	return appendTimeline(b, c.Timeline)
}

func appendOptions(b []byte, o workload.Options) []byte {
	b = appendInt(b, int64(o.Accesses))
	b = appendInt(b, int64(o.Threads))
	return appendInt(b, o.Seed)
}

func appendCore(b []byte, p cpu.Params) []byte {
	b = appendFloat(b, p.ClockGHz)
	b = appendFloat(b, p.BaseCPI)
	b = appendFloat(b, p.MLP)
	b = appendInt(b, int64(p.ROBEntries))
	b = appendInt(b, int64(p.LoadQueue))
	return appendInt(b, int64(p.StoreQueue))
}

func appendLLC(b []byte, m *nvsim.LLCModel) []byte {
	b = appendString(b, m.Name)
	b = appendInt(b, int64(m.Class))
	b = appendInt(b, m.CapacityBytes)
	b = appendFloat(b, m.AreaMM2)
	b = appendFloat(b, m.TagLatencyNS)
	b = appendFloat(b, m.ReadLatencyNS)
	b = appendFloat(b, m.WriteSetNS)
	b = appendFloat(b, m.WriteResetNS)
	b = appendFloat(b, m.HitEnergyNJ)
	b = appendFloat(b, m.MissEnergyNJ)
	b = appendFloat(b, m.WriteEnergyNJ)
	return appendFloat(b, m.LeakageW)
}

func appendDRAM(b []byte, d dram.Config) []byte {
	b = appendInt(b, int64(d.Controllers))
	b = appendFloat(b, d.BandwidthGBps)
	b = appendFloat(b, d.LatencyNS)
	return appendInt(b, int64(d.BlockBytes))
}

func appendFault(b []byte, f fault.Config) []byte {
	b = appendInt(b, int64(f.Class))
	b = appendFloat(b, f.EnduranceWrites)
	b = appendUint(b, f.Seed)
	b = appendFloat(b, f.Spread)
	b = appendInt(b, int64(f.MaxRetries))
	b = appendFloat(b, f.SoftFraction)
	return appendFloat(b, f.PreWearWrites)
}

// appendHybrid writes a presence byte, then the hybrid configuration by
// value, so equal configurations at distinct addresses share a key.
func appendHybrid(b []byte, h *system.HybridConfig) []byte {
	if h == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendLLC(b, &h.SRAM)
	b = appendLLC(b, &h.NVM)
	b = appendInt(b, int64(h.SRAMWays))
	return appendInt(b, int64(h.MigrationThreshold))
}

// appendTimeline writes a presence byte and the timeline config with its
// point budget resolved, so Points 0 and Points DefaultTimelinePoints
// share a key; a nil config writes nothing.
func appendTimeline(b []byte, t *system.TimelineConfig) []byte {
	if t == nil {
		return b
	}
	points := t.Points
	if points == 0 {
		points = system.DefaultTimelinePoints
	}
	b = append(b, 1)
	b = appendUint(b, t.EpochInstructions)
	return appendInt(b, int64(points))
}

func appendInt(b []byte, v int64) []byte { return appendUint(b, uint64(v)) }

func appendUint(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendFloat(b []byte, v float64) []byte { return appendUint(b, math.Float64bits(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(appendInt(b, int64(len(s))), s...)
}
