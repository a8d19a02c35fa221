// Package nvsim is a circuit-level cache model in the spirit of NVSim
// (Dong et al., TCAD 2012), the tool the paper uses to turn the cell-level
// NVM models of Table II into the LLC-level models of Table III.
//
// Given a completed nvm.Cell and a cache organization, Generate produces an
// LLCModel: area, tag/read/write latency, per-access dynamic energies and
// total leakage power. The model follows the paper's equations (4)-(8):
//
//	t_read  ≈ 2·t_Htree + t_read,mat            (4)
//	t_write ≈ 1·t_Htree + t_write,mat           (5)
//	E_hit   = E_tag + E_data-read               (6)
//	E_miss  = E_tag                             (7)
//	E_write = E_tag + E_data-write              (8)
//
// The analytical mat/H-tree formulation is calibrated against the paper's
// published Table III outputs (see internal/reference); EXPERIMENTS.md
// records the per-entry model error. FitCapacityToArea inverts the area
// model to find the largest power-of-two capacity that fits an area budget
// (the paper's fixed-area configuration).
package nvsim

import (
	"fmt"
	"math"

	"nvmllc/internal/nvm"
)

// LLCModel is one column of the paper's Table III: everything the
// full-system simulator needs to know about an LLC built from a given
// memory technology.
type LLCModel struct {
	// Name is the display name, e.g. "Zhang_R" or "SRAM".
	Name string
	// Class is the memory technology class.
	Class nvm.Class
	// CapacityBytes is the usable data capacity.
	CapacityBytes int64
	// AreaMM2 is the total cache area in mm².
	AreaMM2 float64
	// TagLatencyNS is the tag array access latency in ns.
	TagLatencyNS float64
	// ReadLatencyNS is the data read latency t_read in ns (equation (4)).
	ReadLatencyNS float64
	// WriteSetNS and WriteResetNS are the data write latencies in ns
	// (equation (5)). They differ only for PCRAM, matching Table III's
	// "set/ reset" rows; other classes carry the same value in both.
	WriteSetNS   float64
	WriteResetNS float64
	// HitEnergyNJ is E_dyn,hit in nJ (equation (6)).
	HitEnergyNJ float64
	// MissEnergyNJ is E_dyn,miss in nJ (equation (7)).
	MissEnergyNJ float64
	// WriteEnergyNJ is E_dyn,write in nJ (equation (8)).
	WriteEnergyNJ float64
	// LeakageW is the total cache leakage power in W.
	LeakageW float64
}

// WriteLatencyNS is the worst-case data write latency: max(set, reset).
// The full-system simulator uses it for LLC write occupancy.
func (m *LLCModel) WriteLatencyNS() float64 {
	return math.Max(m.WriteSetNS, m.WriteResetNS)
}

// CapacityMB returns the capacity in binary megabytes.
func (m *LLCModel) CapacityMB() float64 {
	return float64(m.CapacityBytes) / (1 << 20)
}

// Validate checks that the model is physically sensible.
func (m *LLCModel) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("nvsim: model has no name")
	}
	if m.CapacityBytes <= 0 {
		return fmt.Errorf("nvsim: %s: capacity %d must be positive", m.Name, m.CapacityBytes)
	}
	// Checked in struct order, so a model with several bad fields
	// always reports the first.
	for _, f := range [...]struct {
		what string
		v    float64
	}{
		{"area", m.AreaMM2},
		{"tag latency", m.TagLatencyNS},
		{"read latency", m.ReadLatencyNS},
		{"write set", m.WriteSetNS},
		{"write reset", m.WriteResetNS},
		{"hit energy", m.HitEnergyNJ},
		{"miss energy", m.MissEnergyNJ},
		{"write energy", m.WriteEnergyNJ},
		{"leakage", m.LeakageW},
	} {
		if f.v <= 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("nvsim: %s: %s = %g, want positive finite", m.Name, f.what, f.v)
		}
	}
	if m.MissEnergyNJ > m.HitEnergyNJ {
		return fmt.Errorf("nvsim: %s: miss energy %g exceeds hit energy %g (miss is tag-only)", m.Name, m.MissEnergyNJ, m.HitEnergyNJ)
	}
	return nil
}

// Org describes the cache organization to model.
type Org struct {
	// CapacityBytes is the data capacity. Must be a positive multiple of
	// BlockBytes*Ways.
	CapacityBytes int64
	// BlockBytes is the cache line size (the paper uses 64).
	BlockBytes int
	// Ways is the set associativity (the paper's LLC is 16-way).
	Ways int
	// ProcessNM optionally overrides the peripheral process node; when zero
	// the cell's own node is used. (The paper's SRAM baseline is 45 nm.)
	ProcessNM float64
	// Layers stacks the data array in 3D with through-silicon vias, as
	// modeled by DESTINY (Poremba et al., DATE 2015), which the paper
	// discusses as the 3D-capable NVM simulator. Zero or one means planar;
	// each doubling of layers roughly halves footprint at a small TSV
	// latency/energy cost. Maximum 8.
	Layers int
}

// GainestownLLC is the paper's LLC organization: 2MB shared, 64B blocks,
// 16-way set associative.
func GainestownLLC() Org {
	return Org{CapacityBytes: 2 << 20, BlockBytes: 64, Ways: 16}
}

// WithCapacity returns a copy of the organization with a different
// capacity.
func (o Org) WithCapacity(bytes int64) Org {
	o.CapacityBytes = bytes
	return o
}

// Validate checks the organization invariants.
func (o Org) Validate() error {
	if o.BlockBytes <= 0 || o.BlockBytes&(o.BlockBytes-1) != 0 {
		return fmt.Errorf("nvsim: block size %d must be a positive power of two", o.BlockBytes)
	}
	if o.Ways <= 0 {
		return fmt.Errorf("nvsim: ways %d must be positive", o.Ways)
	}
	if o.CapacityBytes <= 0 {
		return fmt.Errorf("nvsim: capacity %d must be positive", o.CapacityBytes)
	}
	setBytes := int64(o.BlockBytes) * int64(o.Ways)
	if o.CapacityBytes%setBytes != 0 {
		return fmt.Errorf("nvsim: capacity %d not a multiple of set size %d", o.CapacityBytes, setBytes)
	}
	if o.Layers < 0 || o.Layers > 8 {
		return fmt.Errorf("nvsim: layers %d outside [0,8]", o.Layers)
	}
	return nil
}

// layers returns the effective 3D layer count (≥ 1).
func (o Org) layers() int {
	if o.Layers < 1 {
		return 1
	}
	return o.Layers
}
