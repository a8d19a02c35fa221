package system

// Tests for one functional pass driving several timing backends: every
// member of a group must reproduce its solo run byte for byte, the
// functional/timing-only split of Config must cover every field and
// agree with SameMachine, and groups the walk cannot serve are refused.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"nvmllc/internal/cache"
	"nvmllc/internal/dram"
	"nvmllc/internal/fault"
	"nvmllc/internal/golden"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/reference"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// timingVariants returns base followed by configs that each change
// timing-only fields of it: every fixed-capacity LLC model at base's
// capacity, DRAM, the core model, the L2 latency, the bank count with
// write contention, write contention alone, and the core count.
func timingVariants(t *testing.T, base Config) []Config {
	t.Helper()
	out := []Config{base}
	for _, m := range reference.FixedCapacityModels() {
		if m.Name == base.LLC.Name {
			continue
		}
		cfg := base
		cfg.LLC = m
		cfg.LLC.CapacityBytes = base.LLC.CapacityBytes
		out = append(out, cfg)
	}
	vary := []func(*Config){
		func(c *Config) {
			c.DRAM = dram.Config{Controllers: 2, BandwidthGBps: 3.2, LatencyNS: 90, BlockBytes: 64}
		},
		func(c *Config) { c.Core.ClockGHz, c.Core.BaseCPI, c.Core.MLP = 3.4, 0.7, 2 },
		func(c *Config) { c.L2LatencyNS = 7.5 },
		func(c *Config) { c.LLCBanks, c.ModelWriteContention = 2, true },
		func(c *Config) { c.ModelWriteContention = !c.ModelWriteContention },
		func(c *Config) { c.Cores = 16 },
		func(c *Config) {
			c.LLC = reference.SRAMBaseline()
			c.LLC.CapacityBytes = base.LLC.CapacityBytes
			c.Core.MLP, c.L2LatencyNS, c.Cores = 8, 1, 2
			c.DRAM.LatencyNS = 40
		},
	}
	for _, f := range vary {
		cfg := base
		f(&cfg)
		out = append(out, cfg)
	}
	return out
}

// soloJSON runs cfg alone on tr.
func soloJSON(t *testing.T, cfg Config, tr *trace.Trace) []byte {
	t.Helper()
	r, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return marshalResult(t, r)
}

// runGroup runs cfgs as one group on tr.
func runGroup(t *testing.T, cfgs []Config, tr *trace.Trace, scratch *Scratch) []*Result {
	t.Helper()
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStreamGroup(context.Background(), cfgs, src, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cfgs) {
		t.Fatalf("group of %d returned %d results", len(cfgs), len(res))
	}
	return res
}

// TestGroupMatchesSolo: every member of a group that varies each
// timing-only field reproduces its own solo run as JSON, byte for byte,
// on single-threaded workloads with and without wear tracking, on an LLC
// small enough to evict, and again on a Scratch the group has already
// used.
func TestGroupMatchesSolo(t *testing.T) {
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	wear := Gainestown(kang)
	wear.TrackWear = true
	srrip := sramConfig()
	srrip.LLCPolicy = cache.SRRIP
	// A 128 KiB LLC evicts, so dirty victims write DRAM and contended
	// banks queue on these short traces.
	small := sramConfig()
	small.LLC.CapacityBytes = 128 << 10
	bases := map[string]Config{"sram": sramConfig(), "kang-wear": wear, "sram-srrip": srrip, "sram-128k": small}
	for _, wl := range []string{"bzip2", "leela"} {
		p, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.Generate(p, workload.Options{Accesses: 20000, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for name, base := range bases {
			cfgs := timingVariants(t, base)
			scratch := new(Scratch)
			for round := 0; round < 2; round++ {
				times := map[float64]bool{}
				for i, r := range runGroup(t, cfgs, tr, scratch) {
					times[r.TimeNS] = true
					if got, want := marshalResult(t, r), soloJSON(t, cfgs[i], tr); !bytes.Equal(got, want) {
						t.Errorf("%s/%s round %d member %d (%s): group result differs from solo\ngroup: %s\nsolo:  %s",
							wl, name, round, i, cfgs[i].LLC.Name, got, want)
					}
				}
				if len(times) < len(cfgs)/2 {
					t.Errorf("%s/%s: %d members ran in only %d distinct times; the timing variants barely vary timing", wl, name, len(cfgs), len(times))
				}
			}
		}
	}
}

// TestGroupGoldenCases runs every single-threaded case of the golden
// Result matrix as the first member of a group: the case must still
// match its committed digest, and every timing variant riding along must
// match its solo run. Cases a group cannot take (bypass, hybrid) run as
// a group of one.
func TestGroupGoldenCases(t *testing.T) {
	want := golden.Load(t, resultsFile)
	ran := 0
	for _, gc := range goldenCases(t) {
		if gc.opts.Threads != 1 {
			continue
		}
		ran++
		tr := gc.generate(t)
		cfgs := []Config{gc.cfg()}
		if cfgs[0].Groupable() {
			cfgs = timingVariants(t, cfgs[0])
		}
		res := runGroup(t, cfgs, tr, nil)
		checkGolden(t, want, gc.name, res[0])
		for i := 1; i < len(res); i++ {
			if got, solo := marshalResult(t, res[i]), soloJSON(t, cfgs[i], tr); !bytes.Equal(got, solo) {
				t.Errorf("%s member %d (%s): group result differs from solo", gc.name, i, cfgs[i].LLC.Name)
			}
		}
	}
	if ran == 0 {
		t.Fatal("the golden matrix has no single-threaded case")
	}
}

// TestRunStreamGroupRejects: a group of more than one config needs a
// single-threaded trace, Groupable configs and one shared machine.
func TestRunStreamGroupRejects(t *testing.T) {
	st := streamTrace("st", 512, 2000, 3, 1)
	mt := streamTrace("mt", 512, 2000, 3, 2)
	base := sramConfig()
	l2 := base
	l2.L2Bytes = 512 << 10
	wearOn := base
	wearOn.TrackWear = true
	bypass := base
	bypass.LLCBypass = BypassDeadBlock
	timeline := base
	timeline.Timeline = &TimelineConfig{}
	faulty := Gainestown(reference.SRAMBaseline())
	faulty.Fault = fault.Config{Options: fault.Options{EnduranceWrites: 1e6}}
	cases := []struct {
		name string
		cfgs []Config
		tr   *trace.Trace
		want string
	}{
		{"empty", nil, st, "empty"},
		{"multi-threaded", []Config{base, base}, mt, "single-threaded"},
		{"L2 size", []Config{base, l2}, st, "functional"},
		{"wear tracking", []Config{base, wearOn}, st, "functional"},
		{"bypass", []Config{base, bypass}, st, "timeline, faults, bypass"},
		{"bypass first", []Config{bypass, bypass}, st, "timeline, faults, bypass"},
		{"timeline", []Config{base, timeline}, st, "timeline, faults, bypass"},
		{"faults", []Config{base, faulty}, st, "timeline, faults, bypass"},
	}
	for _, tc := range cases {
		src, err := trace.NewTraceSource(tc.tr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunStreamGroup(context.Background(), tc.cfgs, src, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// A group of one takes any valid config and trace.
	for _, cfg := range []Config{bypass, timeline} {
		src, err := trace.NewTraceSource(mt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunStreamGroup(context.Background(), []Config{cfg}, src, nil); err != nil {
			t.Errorf("group of one: %v", err)
		}
	}
}

// configFieldRoles classifies every leaf field of Config, with the LLC
// model's and DRAM config's fields classified one by one: true for a
// field the functional walk reads, false for a timing-only one.
var configFieldRoles = map[string]bool{
	"Cores":                false,
	"Core":                 false,
	"BlockBytes":           true,
	"L1IBytes":             true,
	"L1IWays":              true,
	"L1DBytes":             true,
	"L1DWays":              true,
	"L2Bytes":              true,
	"L2Ways":               true,
	"L2LatencyNS":          false,
	"LLC.Name":             false,
	"LLC.Class":            false,
	"LLC.CapacityBytes":    true,
	"LLC.AreaMM2":          false,
	"LLC.TagLatencyNS":     false,
	"LLC.ReadLatencyNS":    false,
	"LLC.WriteSetNS":       false,
	"LLC.WriteResetNS":     false,
	"LLC.HitEnergyNJ":      false,
	"LLC.MissEnergyNJ":     false,
	"LLC.WriteEnergyNJ":    false,
	"LLC.LeakageW":         false,
	"LLCWays":              true,
	"LLCBanks":             false,
	"DRAM.Controllers":     false,
	"DRAM.BandwidthGBps":   false,
	"DRAM.LatencyNS":       false,
	"DRAM.BlockBytes":      false,
	"Memory":               false,
	"ModelWriteContention": false,
	"TrackWear":            true,
	"Fault":                true,
	"LLCPolicy":            true,
	"LLCBypass":            true,
	"DisableCoherence":     true,
	"Hybrid":               true,
	"Telemetry":            false,
	"Timeline":             true,
}

// perturb changes v to a different value of its type: the first leaf of
// a struct, a fresh zero pointee for a nil pointer, a DRAM model for the
// main-memory interface.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		perturb(t, v.Field(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		mem, err := dram.New(dram.Gainestown())
		if err != nil {
			t.Fatal(err)
		}
		v.Set(reflect.ValueOf(mem))
	default:
		t.Fatalf("no perturbation for a %s field", v.Kind())
	}
}

// TestConfigFieldsClassified fails when a field of Config, nvsim.LLCModel
// or dram.Config is neither classified functional nor timing-only, and
// checks each classification against SameMachine: changing a
// timing-only field keeps the machine, changing a functional one does
// not.
func TestConfigFieldsClassified(t *testing.T) {
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	base := Gainestown(kang)
	nested := map[reflect.Type]bool{
		reflect.TypeOf(nvsim.LLCModel{}): true,
		reflect.TypeOf(dram.Config{}):    true,
	}
	seen := make(map[string]bool)
	var walk func(prefix string, typ reflect.Type, at func(*Config) reflect.Value)
	walk = func(prefix string, typ reflect.Type, at func(*Config) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := prefix + f.Name
			field := func(c *Config) reflect.Value { return at(c).Field(i) }
			if nested[f.Type] {
				walk(path+".", f.Type, field)
				continue
			}
			seen[path] = true
			functional, ok := configFieldRoles[path]
			if !ok {
				t.Errorf("Config field %s is neither classified functional nor timing-only", path)
				continue
			}
			changed := base
			perturb(t, field(&changed))
			if reflect.DeepEqual(changed, base) {
				t.Fatalf("perturbing %s left the config unchanged", path)
			}
			if same := base.SameMachine(changed); same == functional {
				t.Errorf("changing %s (functional: %v): SameMachine = %v", path, functional, same)
			}
		}
	}
	walk("", reflect.TypeOf(base), func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem() })
	for path := range configFieldRoles {
		if !seen[path] {
			t.Errorf("classified field %s does not exist", path)
		}
	}
	// Pointer fields compare by value.
	a, b := base, base
	a.Timeline, b.Timeline = &TimelineConfig{Points: 4}, &TimelineConfig{Points: 4}
	a.Telemetry, b.Telemetry = telemetry.New(), telemetry.New()
	if !a.SameMachine(b) {
		t.Error("equal timelines behind distinct pointers are different machines")
	}
}
