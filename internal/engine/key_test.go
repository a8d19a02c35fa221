package engine

import (
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"

	"nvmllc/internal/cpu"
	"nvmllc/internal/dram"
	"nvmllc/internal/fault"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/telemetry"
	"nvmllc/internal/workload"
)

// keyJob is a cacheable job with a hybrid LLC and a timeline, so a walk
// of its key inputs reaches the hybrid and timeline configurations'
// fields too.
func keyJob(t *testing.T) Job {
	t.Helper()
	j := hybridJob(t)
	j.Config.Timeline = &system.TimelineConfig{EpochInstructions: 1000, Points: 8}
	return j
}

// hybridJob is keyJob without the timeline.
func hybridJob(t *testing.T) Job {
	t.Helper()
	j := testJob(t, "bzip2", smallOpts())
	j.Config.Hybrid = &system.HybridConfig{
		SRAM:     reference.SRAMBaseline(),
		NVM:      reference.FixedCapacityModels()[1],
		SRAMWays: 4,
	}
	return j
}

// TestKeyStableWithoutTimeline pins the keys of two timeline-less jobs
// to fixed hex values, so stored .v2.llcres entries and llcsimd disk
// caches keep hitting. A change that moves them must bump
// StoreFormatVersion too.
func TestKeyStableWithoutTimeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  Job
		want string
	}{
		{"paper machine", testJob(t, "bzip2", smallOpts()), "5c47da7b5ae64d14a1d0d5d9ee29006f04bf360ee99ee91238afe79905bd8c2c"},
		{"hybrid", hybridJob(t), "7cefe05432cbd29250b6feb1c74f575ddb374e7a4033de082cad6821a963dfd0"},
	} {
		if got := mustKey(t, tc.job); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestKeyCoversEveryField walks Job's key inputs — the workload, its
// trace options and every system.Config field, through nested structs
// and the hybrid and timeline pointees — perturbs each leaf field and
// requires the key to change. The observation-only Telemetry must leave
// the key equal, and an external Memory must make the job uncacheable. A
// field the walk cannot perturb (a new slice, map, interface or func)
// fails the test, so no input can slip past the encoder unnoticed.
func TestKeyCoversEveryField(t *testing.T) {
	base := mustKey(t, keyJob(t))
	seen := make(map[reflect.Type]bool)
	leaves := 0
	var walk func(path string, typ reflect.Type, get func(*Job) reflect.Value)
	walk = func(path string, typ reflect.Type, get func(*Job) reflect.Value) {
		switch typ.Kind() {
		case reflect.Struct:
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				i := i
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type, func(j *Job) reflect.Value { return get(j).Field(i) })
			}
			return
		case reflect.Pointer:
			walk(path, typ.Elem(), func(j *Job) reflect.Value { return get(j).Elem() })
			return
		}
		j := keyJob(t)
		v := get(&j)
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: key input of kind %s, which the walk cannot perturb", path, v.Kind())
		}
		leaves++
		if mustKey(t, j) == base {
			t.Errorf("%s: perturbing the field left the key unchanged", path)
		}
	}
	job := func(j *Job) reflect.Value { return reflect.ValueOf(j).Elem() }
	jt := reflect.TypeOf(Job{})
	for i := 0; i < jt.NumField(); i++ {
		i := i
		f := jt.Field(i)
		switch f.Name {
		case "Source", "NoCache":
			continue // not hashed: NoCache opts out of the key altogether
		case "Workload", "TraceOpts", "Config":
		default:
			t.Fatalf("Job.%s is new: decide whether the key hashes it", f.Name)
		}
		if f.Name != "Config" {
			walk(f.Name, f.Type, func(j *Job) reflect.Value { return job(j).Field(i) })
			continue
		}
		ct := f.Type
		seen[ct] = true
		for k := 0; k < ct.NumField(); k++ {
			k := k
			cf := ct.Field(k)
			switch cf.Name {
			case "Telemetry", "Memory":
				continue // checked below
			}
			walk("Config."+cf.Name, cf.Type, func(j *Job) reflect.Value { return job(j).Field(i).Field(k) })
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(workload.Options{}), reflect.TypeOf(system.Config{}),
		reflect.TypeOf(cpu.Params{}), reflect.TypeOf(nvsim.LLCModel{}),
		reflect.TypeOf(dram.Config{}), reflect.TypeOf(fault.Config{}),
		reflect.TypeOf(system.HybridConfig{}), reflect.TypeOf(system.TimelineConfig{}),
	} {
		if !seen[typ] {
			t.Errorf("the walk never reached %s", typ)
		}
	}
	t.Logf("%d leaf fields perturbed", leaves)

	j := keyJob(t)
	j.Config.Hybrid = nil
	if mustKey(t, j) == base {
		t.Error("dropping the hybrid LLC left the key unchanged")
	}
	j = keyJob(t)
	j.Config.Timeline = nil
	if mustKey(t, j) == base {
		t.Error("dropping the timeline left the key unchanged")
	}
	j = keyJob(t)
	j.Config.Telemetry = telemetry.New()
	if mustKey(t, j) != base {
		t.Error("Telemetry changed the key; it is observation only")
	}
	j = keyJob(t)
	j.Config.Memory = fakeMemory{}
	if _, ok := Key(j); ok {
		t.Error("a job with an external Memory is cacheable")
	}
}

// TestKeyAllocs: a memo hit pays for its key with at most one
// allocation, the returned string; the encoding stays on the stack.
func TestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	j := keyJob(t)
	if n := testing.AllocsPerRun(100, func() { Key(j) }); n > 1 {
		t.Errorf("Key allocates %.1f times per call, want at most 1", n)
	}
}

// TestKeyAndShareImportNoFmt: the key and share-key paths stay off fmt
// and reflect, which cost more than the memo lookups they name.
func TestKeyAndShareImportNoFmt(t *testing.T) {
	for _, file := range []string{"key.go", "share.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "fmt" || path == "reflect" {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

var benchKey string

func BenchmarkKey(b *testing.B) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	j := StreamJob(p, smallOpts(), system.Gainestown(reference.SRAMBaseline()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey, _ = Key(j)
	}
}
