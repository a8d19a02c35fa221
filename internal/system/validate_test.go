package system

import (
	"strings"
	"testing"

	"nvmllc/internal/fault"
	"nvmllc/internal/reference"
)

// TestConfigValidateRejects pins Config.Validate's rejections: the core
// range, the bank count, a negative L2 latency, an invalid LLC model,
// a cache geometry the tag store cannot build, an invalid DRAM model,
// and a hybrid LLC combined with wear tracking, bypass or faults.
func TestConfigValidateRejects(t *testing.T) {
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	hybrid := func(c *Config) {
		c.Hybrid = &HybridConfig{SRAM: reference.SRAMBaseline(), NVM: kang, SRAMWays: 4}
	}
	cases := []struct {
		name string
		edit func(*Config)
		want string // "" means valid
	}{
		{"paper machine", func(*Config) {}, ""},
		{"64 cores", func(c *Config) { c.Cores = 64 }, ""},
		{"hybrid", hybrid, ""},
		{"no cores", func(c *Config) { c.Cores = 0 }, "cores = 0"},
		{"65 cores", func(c *Config) { c.Cores = 65 }, "cores = 65"},
		{"no banks", func(c *Config) { c.LLCBanks = 0 }, "LLC banks = 0"},
		{"negative L2 latency", func(c *Config) { c.L2LatencyNS = -1 }, "negative L2 latency"},
		{"unnamed LLC", func(c *Config) { c.LLC.Name = "" }, "no name"},
		{"empty LLC", func(c *Config) { c.LLC.CapacityBytes = 0 }, "capacity 0"},
		{"free LLC reads", func(c *Config) { c.LLC.ReadLatencyNS = 0 }, "read latency"},
		{"3-way 32 KiB L1D", func(c *Config) { c.L1DWays = 3 }, "cache L1D: capacity 32768 not a positive multiple"},
		{"3 MiB 16-way LLC", func(c *Config) { c.LLC.CapacityBytes = 3 << 20 }, "cache LLC: set count 3072"},
		{"3 MiB LLC under a hybrid", func(c *Config) { hybrid(c); c.LLC.CapacityBytes = 3 << 20 }, ""},
		{"no DRAM controllers", func(c *Config) { c.DRAM.Controllers = 0 }, "dram: controllers = 0"},
		{"no DRAM controllers, external memory", func(c *Config) { c.DRAM.Controllers = 0; c.Memory = nopMemory{} }, ""},
		{"hybrid with wear", func(c *Config) { hybrid(c); c.TrackWear = true }, "wear tracking or bypass"},
		{"hybrid with bypass", func(c *Config) { hybrid(c); c.LLCBypass = BypassDeadBlock }, "wear tracking or bypass"},
		{"hybrid with faults", func(c *Config) {
			hybrid(c)
			c.Fault = fault.Config{Options: fault.Options{Class: kang.Class}}
		}, "fault injection"},
	}
	for _, tc := range cases {
		cfg := Gainestown(kang)
		tc.edit(&cfg)
		err := cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestConfigValidateAllocs pins Config.Validate at zero allocations on
// an accepted machine: llcsimd validates every admitted job spec.
func TestConfigValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	faulty := Gainestown(kang)
	faulty.Fault = fault.Config{Options: fault.Options{Class: kang.Class}}
	hybrid := Gainestown(kang)
	hybrid.Hybrid = &HybridConfig{SRAM: reference.SRAMBaseline(), NVM: kang, SRAMWays: 4}
	for name, cfg := range map[string]Config{"paper machine": Gainestown(kang), "faults": faulty, "hybrid": hybrid} {
		if n := testing.AllocsPerRun(100, func() {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Validate allocates %.1f times per call, want 0", name, n)
		}
	}
}

// nopMemory stands in for an external main memory, which replaces the
// DRAM model and so exempts Config.DRAM from validation.
type nopMemory struct{}

func (nopMemory) Read(nowNS float64, lineAddr uint64) float64  { return nowNS }
func (nopMemory) Write(nowNS float64, lineAddr uint64) float64 { return nowNS }
