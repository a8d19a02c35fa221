package system

import (
	"strings"
	"testing"

	"nvmllc/internal/fault"
	"nvmllc/internal/reference"
)

// TestConfigValidateRejects pins Config.Validate's rejections: the core
// range, the bank count, a negative L2 latency, an invalid LLC model,
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
