package cliutil

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"nvmllc/internal/cache"
	"nvmllc/internal/engine"
	"nvmllc/internal/telemetry"
)

// versionOnce caches the build-info lookup; the version string is
// stamped into every manifest event.
var versionOnce = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			return v + "+" + s.Value[:12]
		}
	}
	return v
})

// Version reports the tool version recorded in run manifests: the main
// module version, with the VCS revision appended when the build stamped
// one.
func Version() string { return versionOnce() }

// DebugAddrFlag registers just the -debug-addr flag, for tools that do
// not take the standard simulation flags, and returns the value to read
// after Parse.
func DebugAddrFlag(fs *flag.FlagSet) *string {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.String("debug-addr", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060; empty disables)")
}

// expvar registration is process-global and panics on duplicate names,
// so the "nvmllc" var is published once and reads through a swappable
// registry pointer (tests and successive runs start fresh registries).
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarReg  *telemetry.Registry
)

func publishExpvar(reg *telemetry.Registry) {
	expvarMu.Lock()
	expvarReg = reg
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("nvmllc", expvar.Func(func() any {
			expvarMu.Lock()
			defer expvarMu.Unlock()
			if expvarReg == nil {
				return nil
			}
			return expvarReg.Snapshot()
		}))
	})
}

// DebugHandler serves the observability surface for one registry:
//
//	/metrics         Prometheus text exposition (version 0.0.4)
//	/metrics.json    registry snapshot as indented JSON
//	/debug/vars      expvar (the registry appears under "nvmllc")
//	/debug/pprof/    the standard pprof index, profiles and traces
//	/debug/timeline  live auto-refreshing HTML dashboard (no JS)
func DebugHandler(reg *telemetry.Registry) http.Handler {
	publishExpvar(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/timeline", newLiveTimeline(reg).serve)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is the live observability endpoint behind -debug-addr.
type DebugServer struct {
	lis net.Listener
	srv *http.Server
}

// StartDebugServer listens on addr (host:port; port 0 picks a free one)
// and serves DebugHandler in the background until Close.
func StartDebugServer(addr string, reg *telemetry.Registry) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug server: %w", err)
	}
	srv := &http.Server{Handler: DebugHandler(reg)}
	go func() { _ = srv.Serve(lis) }()
	return &DebugServer{lis: lis, srv: srv}, nil
}

// Addr is the bound address (resolving a requested port 0).
func (s *DebugServer) Addr() string { return s.lis.Addr().String() }

// Close stops the server. Nil-safe.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Observability bundles the per-run telemetry a CLI starts from its
// flags: the metrics registry and root span (always on — they cost
// nothing until read), the JSONL manifest writer when -manifest was
// given, and the live debug endpoint when -debug-addr was given.
type Observability struct {
	// Tool names the CLI; it is stamped into every manifest event.
	Tool string
	// Registry collects the run's metrics and spans.
	Registry *telemetry.Registry
	// Manifest receives one design_point event per answered job (nil
	// without -manifest; nil-safe to write to).
	Manifest *telemetry.ManifestWriter
	// Debug is the live endpoint (nil without -debug-addr).
	Debug *DebugServer
	// Span is the run's root span; sweep and engine spans parent to it
	// through Context.
	Span *telemetry.Span
	// engStats, when set by TrackEngine, snapshots the engine's final
	// counters into the run_end manifest event.
	engStats func() engine.Stats
}

// TrackEngine registers the run's engine so Close can stamp its final
// counter snapshot — including profiling passes and profile-cache
// hits — into the run_end manifest event.
func (o *Observability) TrackEngine(eng *engine.Engine) { o.engStats = eng.Stats }

// StartObservability builds the run's observability surface from the
// parsed flags. The manifest opens with a run_start event; the debug
// server announces its bound address on stderr, so `-debug-addr
// localhost:0` is discoverable. Callers must Close with the run's
// error.
func (f *Flags) StartObservability(tool string) (*Observability, error) {
	o := &Observability{Tool: tool, Registry: telemetry.New()}
	o.Span = o.Registry.StartSpan(tool, nil)
	if f.Manifest != "" {
		mw, err := telemetry.CreateManifest(f.Manifest)
		if err != nil {
			return nil, err
		}
		o.Manifest = mw
		if err := mw.Write(telemetry.ManifestEvent{
			Event:   "run_start",
			Tool:    tool,
			Version: Version(),
			UnixMS:  time.Now().UnixMilli(),
		}); err != nil {
			return nil, err
		}
	}
	if f.DebugAddr != "" {
		srv, err := StartDebugServer(f.DebugAddr, o.Registry)
		if err != nil {
			_ = o.Manifest.Close()
			return nil, err
		}
		o.Debug = srv
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s/ (metrics, timeline, expvar, pprof)\n", tool, srv.Addr())
	}
	return o, nil
}

// Context returns ctx carrying the run's root span, so design-point
// spans started below it are parented correctly.
func (o *Observability) Context(ctx context.Context) context.Context {
	return telemetry.ContextWithSpan(ctx, o.Span)
}

// EngineOptions instruments an engine with the run's registry and, when
// a manifest is open, a progress observer appending one design_point
// event per answered job.
func (o *Observability) EngineOptions() []engine.Option {
	opts := []engine.Option{engine.WithTelemetry(o.Registry)}
	if o.Manifest != nil {
		opts = append(opts, engine.WithProgress(func(ev engine.Event) {
			_ = o.Manifest.Write(o.ResultEvent(ev))
		}))
	}
	return opts
}

// ResultEvent converts an engine progress event into a manifest
// design_point event, flattening per-level cache rates and the DRAM
// queue-latency quantile summary.
func (o *Observability) ResultEvent(ev engine.Event) telemetry.ManifestEvent {
	e := telemetry.ManifestEvent{
		Event:    "design_point",
		Tool:     o.Tool,
		Version:  Version(),
		UnixMS:   time.Now().UnixMilli(),
		Workload: ev.Workload,
		LLC:      ev.LLC,
		Key:      ev.Key,
		Cached:   ev.Cached,
		WallNS:   ev.WallNS,
	}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	r := ev.Result
	if r == nil {
		return e
	}
	e.Cores = r.Cores
	e.TimeNS = r.TimeNS
	e.Instructions = r.Instructions
	e.MPKI = r.LLCMPKI()
	e.WriteFraction = r.LLC.WriteFraction()
	e.LLCEnergyJ = r.LLCEnergyJ()
	llcRate := 0.0
	if acc := r.LLC.Accesses(); acc > 0 {
		llcRate = float64(r.LLC.Hits) / float64(acc)
	}
	e.Levels = map[string]telemetry.ManifestLevel{
		"L1I": manifestLevel(r.L1I),
		"L1D": manifestLevel(r.L1D),
		"L2":  manifestLevel(r.L2),
		"LLC": {
			Hits:    r.LLC.Hits,
			Misses:  r.LLC.Misses,
			HitRate: llcRate,
			Writes:  r.LLC.Writes,
		},
	}
	d := &telemetry.ManifestDRAM{Reads: r.DRAM.Reads, Writes: r.DRAM.Writes}
	if n := r.DRAM.Reads + r.DRAM.Writes; n > 0 {
		d.AvgWaitNS = r.DRAM.TotalWaitNS / float64(n)
	}
	if s := r.DRAMWait; s != nil && s.Count > 0 {
		d.WaitP50NS = s.Quantile(0.5)
		d.WaitP90NS = s.Quantile(0.9)
		d.WaitP99NS = s.Quantile(0.99)
		d.WaitMaxNS = s.Max
	}
	e.DRAM = d
	e.Timeline = r.Timeline
	return e
}

// manifestLevel flattens one private cache level's statistics.
func manifestLevel(s cache.Stats) telemetry.ManifestLevel {
	return telemetry.ManifestLevel{
		Hits:       s.Hits,
		Misses:     s.Misses,
		HitRate:    s.HitRate(),
		Writebacks: s.Writebacks,
		Fills:      s.Fills,
	}
}

// Close ends the run: the root span ends, the run_end event (with the
// run's error and design-point count) closes the manifest, and the
// debug server shuts down. Errors are joined.
func (o *Observability) Close(runErr error) error {
	o.Span.End()
	var errs []error
	if o.Manifest != nil {
		end := telemetry.ManifestEvent{
			Event:  "run_end",
			Tool:   o.Tool,
			UnixMS: time.Now().UnixMilli(),
			Jobs:   o.Manifest.Events(),
		}
		if runErr != nil {
			end.Error = runErr.Error()
		}
		if o.engStats != nil {
			s := o.engStats()
			end.Engine = &telemetry.ManifestEngine{
				Simulated:   s.Simulated,
				Cached:      s.Cached,
				Failed:      s.Failed,
				TraceGens:   s.TraceGens,
				TraceShared: s.TraceShared,
				Profiles:    s.Profiles,
				ProfileHits: s.ProfileHits,
				Features:    s.Features,
				FeatureHits: s.FeatureHits,
			}
		}
		errs = append(errs, o.Manifest.Write(end), o.Manifest.Close())
	}
	if o.Debug != nil {
		errs = append(errs, o.Debug.Close())
	}
	return errors.Join(errs...)
}
