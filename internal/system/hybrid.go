package system

// Hybrid SRAM/NVM LLC with write-aware placement and migration, the
// technique of the paper's reference [7] (Wang et al., HPCA 2014:
// "Adaptive placement and migration policy for an STT-RAM-based hybrid
// cache") and the LAP work [8]. Each set is split into a few SRAM ways
// and many NVM ways: load fills go to the dense NVM partition,
// store-allocations and write-hot lines live in the SRAM partition, so
// the expensive NVM writes are absorbed by SRAM while the NVM provides
// capacity.

import (
	"fmt"

	"nvmllc/internal/cache"
	"nvmllc/internal/linetab"
	"nvmllc/internal/nvsim"
)

// HybridConfig describes a hybrid LLC.
type HybridConfig struct {
	// SRAM and NVM are the partition technologies (typically the SRAM
	// baseline and one Table III NVM).
	SRAM, NVM nvsim.LLCModel
	// SRAMWays of the total Config.LLCWays are SRAM; the rest are NVM.
	SRAMWays int
	// MigrationThreshold is the number of NVM write-hits after which a
	// line migrates to the SRAM partition (default 2).
	MigrationThreshold int
}

// Validate checks the hybrid configuration against the machine config.
func (h *HybridConfig) Validate(totalWays int) error {
	if err := h.SRAM.Validate(); err != nil {
		return err
	}
	if err := h.NVM.Validate(); err != nil {
		return err
	}
	if h.SRAMWays <= 0 || h.SRAMWays >= totalWays {
		return fmt.Errorf("system: hybrid SRAM ways %d must be in (0,%d)", h.SRAMWays, totalWays)
	}
	return nil
}

func (h *HybridConfig) threshold() int {
	if h.MigrationThreshold <= 0 {
		return 2
	}
	return h.MigrationThreshold
}

// HybridStats counts hybrid-LLC events by partition.
type HybridStats struct {
	// SRAMHits/NVMHits are demand hits by partition.
	SRAMHits, NVMHits uint64
	// SRAMWrites/NVMWrites are data-array writes by partition (fills,
	// writebacks, migrations).
	SRAMWrites, NVMWrites uint64
	// Misses are demand misses of both partitions.
	Misses uint64
	// Migrations counts NVM→SRAM promotions of write-hot lines;
	// Demotions counts SRAM→NVM spills on SRAM pressure.
	Migrations, Demotions uint64
}

// hybridLLC is the runtime engine: two per-set partitions with the same
// set count sharing one line-address space. writeHeat counts each
// NVM-resident line's write hits toward migration (absent: none).
type hybridLLC struct {
	cfg        *HybridConfig
	sram, nvm  *cache.Cache
	writeHeat  linetab.Table
	stats      HybridStats
	dynamicNJ  float64
	totalWays  int
	threshold  int
	sets       int
	capacityBy int64
}

// newHybridLLC builds the partitions: the NVM model's capacity defines the
// set count at the machine's total associativity; each partition gets its
// share of ways at that set count. Both partition configs go through
// cache.Config.Validate before construction, so a bad hybrid geometry is
// reported against the partition that causes it rather than surfacing as
// a generic cache.New error.
func newHybridLLC(h *HybridConfig, blockBytes, totalWays int) (*hybridLLC, error) {
	if err := h.Validate(totalWays); err != nil {
		return nil, err
	}
	sets := h.NVM.CapacityBytes / int64(blockBytes) / int64(totalWays)
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("system: hybrid set count %d must be a positive power of two", sets)
	}
	nvmWays := totalWays - h.SRAMWays
	sramCfg := cache.Config{
		Name: "LLC-SRAM", CapacityBytes: sets * int64(h.SRAMWays) * int64(blockBytes),
		BlockBytes: blockBytes, Ways: h.SRAMWays,
	}
	nvmCfg := cache.Config{
		Name: "LLC-NVM", CapacityBytes: sets * int64(nvmWays) * int64(blockBytes),
		BlockBytes: blockBytes, Ways: nvmWays,
	}
	for _, cfg := range []cache.Config{sramCfg, nvmCfg} {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("system: hybrid partition: %w", err)
		}
	}
	sram, err := cache.New(sramCfg)
	if err != nil {
		return nil, err
	}
	nvm, err := cache.New(nvmCfg)
	if err != nil {
		return nil, err
	}
	return &hybridLLC{
		cfg: h, sram: sram, nvm: nvm,
		totalWays: totalWays, threshold: h.threshold(),
		sets:       int(sets),
		capacityBy: sets * int64(totalWays) * int64(blockBytes),
	}, nil
}

// lookup services a demand access without allocating. It returns whether
// it hit and the access latency (on a miss, the tag-check latency).
func (hl *hybridLLC) lookup(line uint64) (hit bool, latencyNS float64) {
	if hl.sram.Touch(line, false) {
		hl.stats.SRAMHits++
		hl.dynamicNJ += hl.cfg.SRAM.HitEnergyNJ
		return true, hl.cfg.SRAM.TagLatencyNS + hl.cfg.SRAM.ReadLatencyNS
	}
	if hl.nvm.Touch(line, false) {
		hl.stats.NVMHits++
		hl.dynamicNJ += hl.cfg.NVM.HitEnergyNJ
		return true, hl.cfg.NVM.TagLatencyNS + hl.cfg.NVM.ReadLatencyNS
	}
	hl.stats.Misses++
	hl.dynamicNJ += hl.cfg.SRAM.MissEnergyNJ + hl.cfg.NVM.MissEnergyNJ
	return false, hl.cfg.NVM.TagLatencyNS
}

// readLatencyNS is the cost of reading a line back out of the hybrid
// LLC: the tag+data latency of the partition holding it, or the NVM
// (worst-case) path for an absent line. Pure timing — no statistics or
// replacement state are touched — used to price coherence
// cache-to-cache transfers routed through the LLC.
func (hl *hybridLLC) readLatencyNS(line uint64) float64 {
	if hl.sram.Probe(line) {
		return hl.cfg.SRAM.TagLatencyNS + hl.cfg.SRAM.ReadLatencyNS
	}
	return hl.cfg.NVM.TagLatencyNS + hl.cfg.NVM.ReadLatencyNS
}

// fill installs a line after a DRAM fetch. Store-allocations go to SRAM
// (they are about to be written), load fills to the dense NVM.
func (hl *hybridLLC) fill(line uint64, forStore bool) (dramWbs []uint64) {
	if forStore {
		return hl.installSRAM(line, false)
	}
	hl.stats.NVMWrites++
	hl.dynamicNJ += hl.cfg.NVM.WriteEnergyNJ
	if ev := hl.nvm.Install(line, false); ev.Valid {
		hl.writeHeat.Delete(ev.LineAddr)
		if ev.Dirty {
			dramWbs = append(dramWbs, ev.LineAddr)
		}
	}
	return dramWbs
}

// writeback absorbs an L2 dirty eviction. SRAM-resident lines update in
// place; NVM-resident lines heat up and migrate to SRAM past the
// threshold; absent lines allocate into SRAM (write-allocate into the
// write-friendly partition).
func (hl *hybridLLC) writeback(line uint64) (dramWbs []uint64) {
	if hl.sram.Probe(line) {
		hl.sram.Touch(line, true)
		hl.stats.SRAMWrites++
		hl.dynamicNJ += hl.cfg.SRAM.WriteEnergyNJ
		return nil
	}
	if hl.nvm.Probe(line) {
		if hl.writeHeat.Add(line, 1) >= uint64(hl.threshold) {
			// Promote the write-hot line: NVM read + SRAM install.
			hl.writeHeat.Delete(line)
			hl.nvm.Invalidate(line)
			hl.stats.Migrations++
			hl.dynamicNJ += hl.cfg.NVM.HitEnergyNJ // migration read
			return hl.installSRAM(line, true)
		}
		hl.nvm.Touch(line, true)
		hl.stats.NVMWrites++
		hl.dynamicNJ += hl.cfg.NVM.WriteEnergyNJ
		return nil
	}
	return hl.installSRAM(line, true)
}

// installSRAM places a line in the SRAM partition; a displaced victim
// demotes to the NVM partition (an NVM write), whose own victim may go to
// DRAM.
func (hl *hybridLLC) installSRAM(line uint64, dirty bool) (dramWbs []uint64) {
	hl.stats.SRAMWrites++
	hl.dynamicNJ += hl.cfg.SRAM.WriteEnergyNJ
	ev := hl.sram.Install(line, dirty)
	if !ev.Valid {
		return nil
	}
	hl.stats.Demotions++
	hl.stats.NVMWrites++
	hl.dynamicNJ += hl.cfg.NVM.WriteEnergyNJ
	ev2 := hl.nvm.Install(ev.LineAddr, ev.Dirty)
	if ev2.Valid {
		hl.writeHeat.Delete(ev2.LineAddr)
		if ev2.Dirty {
			dramWbs = append(dramWbs, ev2.LineAddr)
		}
	}
	return dramWbs
}

// leakageW is the way-weighted sum of the partition leakage powers.
func (hl *hybridLLC) leakageW() float64 {
	sramFrac := float64(hl.cfg.SRAMWays) / float64(hl.totalWays)
	nvmFrac := 1 - sramFrac
	return hl.cfg.SRAM.LeakageW*sramFrac + hl.cfg.NVM.LeakageW*nvmFrac
}
