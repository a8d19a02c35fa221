// Package cliutil holds the scaffolding shared by the nvmllc command-line
// tools: signal-aware entry points (SIGINT/SIGTERM cancel the run's
// context so in-flight simulations abort promptly), the standard
// simulation flags (-accesses, -seed, -parallelism, -timeout), periodic
// engine progress reporting, and table-rendering helpers.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"nvmllc/internal/engine"
	"nvmllc/internal/workload"
)

// Main runs a tool body under a context that is cancelled by SIGINT or
// SIGTERM, then exits with the conventional status: 0 on success, 130
// when the run was interrupted, 1 on any other error. Errors are printed
// to stderr prefixed with the tool name.
func Main(tool string, body func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := body(ctx)
	stop()
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", tool, err)
		os.Exit(130)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}

// Flags holds the flag values shared by the simulation CLIs.
type Flags struct {
	// Accesses is the base trace length before per-workload scaling.
	Accesses int
	// Seed seeds trace generation.
	Seed int64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Timeout aborts the whole run when positive.
	Timeout time.Duration
	// DebugAddr serves the live /metrics, expvar and pprof endpoint when
	// non-empty.
	DebugAddr string
	// Manifest is the JSONL run-manifest path; registered only by
	// ManifestFlag (the tools that emit per-design-point manifests).
	Manifest string
}

// StandardFlags registers the shared simulation flags on fs
// (flag.CommandLine when nil) and returns the value struct to read after
// Parse.
func StandardFlags(fs *flag.FlagSet, defaultAccesses int) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	fs.IntVar(&f.Accesses, "accesses", defaultAccesses, "base trace length before per-workload scaling")
	fs.Int64Var(&f.Seed, "seed", 1, "trace generation seed")
	fs.IntVar(&f.Parallelism, "parallelism", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060; empty disables)")
	return f
}

// ManifestFlag additionally registers -manifest on fs (flag.CommandLine
// when nil), for the tools that write JSONL run manifests.
func (f *Flags) ManifestFlag(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Manifest, "manifest", "",
		"write a JSONL run manifest (one design_point event per answered design point) to this path")
}

// Options builds trace-generation options from the flags.
func (f *Flags) Options() workload.Options {
	return workload.Options{Accesses: f.Accesses, Seed: f.Seed}
}

// WithTimeout derives the run context: a deadline context when -timeout
// was set, otherwise a plain cancellable child. Callers must call the
// returned cancel func.
func (f *Flags) WithTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(ctx, f.Timeout)
	}
	return context.WithCancel(ctx)
}

// Engine builds an experiment engine bounded by the -parallelism flag.
func (f *Flags) Engine(opts ...engine.Option) *engine.Engine {
	if f.Parallelism > 0 {
		opts = append([]engine.Option{engine.WithParallelism(f.Parallelism)}, opts...)
	}
	return engine.New(opts...)
}

// StartProgress prints the engine's counters to stderr every interval
// until the returned stop func is called (idempotent). A non-positive
// interval disables reporting. Ticks on which the counters did not move
// print nothing, and stop flushes a final snapshot when there is unseen
// progress — so a run shorter than the interval still reports exactly
// once, and an idle engine does not spam identical lines.
func StartProgress(eng *engine.Engine, every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		var last engine.Stats
		printed := false
		report := func() {
			s := eng.Stats()
			if printed && s == last {
				return
			}
			last, printed = s, true
			fmt.Fprintf(os.Stderr, "progress: %s\n", s)
		}
		for {
			select {
			case <-done:
				report()
				return
			case <-t.C:
				report()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// ArtifactList collects -artifact flag values: the flag may be repeated
// and each value may be a comma-separated list, so `-artifact fig1a
// -artifact table5,lifetime` selects three artifacts. Values are kept in
// the order given, deduplicated.
type ArtifactList struct {
	names []string
	known map[string]bool
}

// String implements flag.Value.
func (l *ArtifactList) String() string {
	if l == nil {
		return ""
	}
	return strings.Join(l.names, ",")
}

// Set implements flag.Value: it splits on commas, validates each name
// against the registry snapshot, and appends new names in order.
func (l *ArtifactList) Set(v string) error {
	for _, name := range strings.Split(v, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if len(l.known) > 0 && !l.known[name] {
			return fmt.Errorf("unknown artifact %q", name)
		}
		dup := false
		for _, have := range l.names {
			if have == name {
				dup = true
				break
			}
		}
		if !dup {
			l.names = append(l.names, name)
		}
	}
	return nil
}

// Names returns the selected artifact names in the order given.
func (l *ArtifactList) Names() []string { return l.names }

// ArtifactFlag registers -artifact on fs (flag.CommandLine when nil).
// known is the registry's name list (e.g. sweep.ArtifactNames()); it is
// baked into the help text so -help documents every runnable artifact,
// and values are validated against it at parse time. cliutil stays
// registry-agnostic: callers pass the snapshot in.
func ArtifactFlag(fs *flag.FlagSet, known []string) *ArtifactList {
	if fs == nil {
		fs = flag.CommandLine
	}
	l := &ArtifactList{known: make(map[string]bool, len(known))}
	for _, n := range known {
		l.known[n] = true
	}
	fs.Var(l, "artifact",
		fmt.Sprintf("artifact to run, by registry name (repeatable, comma-separated); one of: %s",
			strings.Join(known, ", ")))
	return l
}

// Renderer is anything that can print itself — tablefmt tables and
// heatmaps.
type Renderer interface {
	Render(io.Writer) error
}

// RenderAll renders each item to w, separated by blank lines.
func RenderAll(w io.Writer, items ...Renderer) error {
	for i, it := range items {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := it.Render(w); err != nil {
			return err
		}
	}
	return nil
}
