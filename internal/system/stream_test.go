package system

// Equivalence tests for the streaming pipeline at the whole-simulator
// level: every chunk size and ring depth, and scratch reuse across
// differently shaped machines, must reproduce the committed result
// digests (testdata/golden) byte for byte — every counter, clock and
// energy figure — across machine variants that exercise every optional
// subsystem (coherence, hybrid LLC, wear tracking, dead-block bypass,
// write contention).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"nvmllc/internal/cache"
	"nvmllc/internal/golden"
	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// machineVariants are the configs the equivalence suites sweep. Each
// returns a config for the given core count.
func machineVariants(t *testing.T) map[string]func(cores int) Config {
	t.Helper()
	kang, err := reference.ModelByName(reference.FixedCapacityModels(), "Kang_P")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(cores int) Config{
		"sram": func(cores int) Config {
			return sramConfig().WithCores(cores)
		},
		"nvm-wear-bypass": func(cores int) Config {
			cfg := Gainestown(kang).WithCores(cores)
			cfg.TrackWear = true
			cfg.LLCBypass = BypassDeadBlock
			return cfg
		},
		"nvm-contention-srrip": func(cores int) Config {
			cfg := Gainestown(kang).WithCores(cores)
			cfg.ModelWriteContention = true
			cfg.LLCPolicy = cache.SRRIP
			return cfg
		},
		"nvm-random-nocoherence": func(cores int) Config {
			cfg := Gainestown(kang).WithCores(cores)
			cfg.LLCPolicy = cache.Random
			cfg.DisableCoherence = true
			return cfg
		},
		"hybrid": func(cores int) Config {
			cfg := Gainestown(kang).WithCores(cores)
			cfg.Hybrid = &HybridConfig{SRAM: reference.SRAMBaseline(), NVM: kang, SRAMWays: 4}
			return cfg
		},
	}
}

// runChunked is runStreamChunked for a single config.
func runChunked(ctx context.Context, cfg Config, src trace.ChunkSource, scratch *Scratch, chunkAccesses, ringSlots int) (*Result, streamStats, error) {
	res, stats, err := runStreamChunked(ctx, []Config{cfg}, src, scratch, chunkAccesses, ringSlots)
	if err != nil {
		return nil, stats, err
	}
	return res[0], stats, nil
}

func marshalResult(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamMatchesWholeTrace: simulating a workload through the chunked
// streaming path (generator → ring → per-core queues) must reproduce the
// digests the retired whole-trace path committed, for every machine
// variant, thread count, chunk size and ring depth — including chunks
// far smaller than a scheduling quantum, which force mid-flight refills.
func TestStreamMatchesWholeTrace(t *testing.T) {
	want := golden.Load(t, resultsFile)
	prof, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	for name, mkCfg := range machineVariants(t) {
		for _, threads := range []int{1, 2, 8} {
			cfg := mkCfg(threads)
			for _, chunk := range []int{64, 1000, defaultChunkAccesses} {
				for _, slots := range []int{2, defaultRingSlots, 8} {
					gen, err := workload.NewGenerator(prof, variantOpts(threads))
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := runChunked(context.Background(), cfg, gen, nil, chunk, slots)
					if err != nil {
						t.Fatalf("%s/%dt/chunk=%d/slots=%d: %v", name, threads, chunk, slots, err)
					}
					checkGolden(t, want, variantKey(name, threads), got)
				}
			}
		}
	}
}

// TestTraceSourceStreaming: reusing one Scratch across repeated streaming
// runs of a materialized trace must reproduce a fresh run exactly.
func TestTraceSourceStreaming(t *testing.T) {
	prof, err := workload.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(prof, workload.Options{Accesses: 15000, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sramConfig().WithCores(4)
	want, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantB := marshalResult(t, want)
	scratch := new(Scratch)
	for i := 0; i < 3; i++ {
		src, err := trace.NewTraceSource(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunStreamWith(context.Background(), cfg, src, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if gotB := marshalResult(t, got); !bytes.Equal(gotB, wantB) {
			t.Errorf("run %d: scratch reuse changed the result\nreused: %s\nfresh:  %s", i, gotB, wantB)
		}
	}
}

// TestRunLayoutEquivalence: the packed SoA tag store, carved from one
// arena recycled across differently shaped machines, must reproduce the
// digests committed while the AoS reference layout still ran through the
// full simulator alongside it, on every machine variant.
func TestRunLayoutEquivalence(t *testing.T) {
	want := golden.Load(t, resultsFile)
	prof, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	scratch := new(Scratch)
	for name, mkCfg := range machineVariants(t) {
		for _, threads := range []int{1, 4} {
			gen, err := workload.NewGenerator(prof, variantOpts(threads))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunStreamWith(context.Background(), mkCfg(threads), gen, scratch)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, want, variantKey(name, threads), got)
		}
	}
}

// lyingSource wraps a ChunkSource and misdeclares or corrupts its stream.
type lyingSource struct {
	trace.ChunkSource
	meta     trace.Meta
	truncate int64 // stop after this many accesses (0 = no truncation)
	sent     int64
	badTid   bool
	badKind  bool
}

func (s *lyingSource) Meta() trace.Meta { return s.meta }

func (s *lyingSource) ReadChunk(buf []trace.Access) (int, error) {
	if s.truncate > 0 && s.sent >= s.truncate {
		return 0, nil
	}
	n, err := s.ChunkSource.ReadChunk(buf)
	if err != nil || n == 0 {
		return n, err
	}
	if s.truncate > 0 && s.sent+int64(n) > s.truncate {
		n = int(s.truncate - s.sent)
	}
	s.sent += int64(n)
	if s.badTid {
		buf[0].Tid = 63
	}
	if s.badKind {
		buf[0].Kind = trace.Kind(200)
	}
	return n, nil
}

// TestStreamSourceValidation: sources that end early, overrun their
// declared per-thread counts, or emit malformed accesses must fail the
// run with an error instead of corrupting the pacing.
func TestStreamSourceValidation(t *testing.T) {
	prof, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{Accesses: 5000, Threads: 2}
	mk := func() (*workload.Generator, trace.Meta) {
		g, err := workload.NewGenerator(prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		return g, g.Meta()
	}
	cfg := sramConfig().WithCores(2)
	run := func(src trace.ChunkSource) error {
		_, err := RunStream(context.Background(), cfg, src)
		return err
	}

	g, meta := mk()
	if err := run(&lyingSource{ChunkSource: g, meta: meta, truncate: meta.Accesses / 2}); err == nil {
		t.Error("stream ending early must error")
	}
	g, meta = mk()
	over := meta
	over.Accesses /= 2
	per := make([]int64, meta.Threads)
	for t := range per {
		per[t] = over.Accesses / int64(meta.Threads)
	}
	over.PerThread = per
	if err := run(&lyingSource{ChunkSource: g, meta: over}); err == nil {
		t.Error("producing more than the declared per-thread counts must error")
	}
	g, meta = mk()
	if err := run(&lyingSource{ChunkSource: g, meta: meta, badTid: true}); err == nil {
		t.Error("out-of-range tid must error")
	}
	g, meta = mk()
	if err := run(&lyingSource{ChunkSource: g, meta: meta, badKind: true}); err == nil {
		t.Error("invalid access kind must error")
	}
	g, meta = mk()
	bad := meta
	bad.PerThread = nil
	if err := run(&lyingSource{ChunkSource: g, meta: bad}); err == nil {
		t.Error("inconsistent Meta must fail validation")
	}
}

// TestStreamCancellation: cancelling the context aborts a streaming run
// promptly with ctx.Err() and shuts the producer down cleanly.
func TestStreamCancellation(t *testing.T) {
	prof, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(prof, workload.Options{Accesses: 2_000_000, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStream(ctx, sramConfig().WithCores(4), g); err == nil {
		t.Fatal("cancelled streaming run returned no error")
	} else if err != context.Canceled {
		// Pre-flight rejection also acceptable; anything but success is.
		if !errorsIsContext(err) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func errorsIsContext(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded ||
		fmt.Sprint(err) == context.Canceled.Error()
}

// skewTrace builds a two-thread trace whose stream order is maximally
// skewed: every thread-0 access is produced before any thread-1 access,
// so the consumer must buffer thread 0's chunks while thread 1 (whose
// clock stays earliest) starves for its first access. With a bounded
// ring this is exactly the state that forces slot evacuation.
func skewTrace(perThread int) *trace.Trace {
	accs := make([]trace.Access, 0, 2*perThread)
	for tid := uint8(0); tid < 2; tid++ {
		for i := 0; i < perThread; i++ {
			kind := trace.Read
			switch i % 3 {
			case 1:
				kind = trace.Write
			case 2:
				kind = trace.Ifetch
			}
			accs = append(accs, trace.Access{
				Addr: uint64(i)*64*7 + uint64(tid)<<20,
				Tid:  tid,
				Kind: kind,
			})
		}
	}
	return &trace.Trace{
		Name:       "skew",
		Threads:    2,
		InstrCount: uint64(3 * len(accs)),
		Accesses:   accs,
	}
}

// TestStreamSkewEvacuation: a stream whose thread interleaving outruns
// the ring depth must complete (no deadlock between the bounded ring and
// the starved producer), actually exercise the evacuation path, and stay
// byte-identical to the whole-trace run.
func TestStreamSkewEvacuation(t *testing.T) {
	tr := skewTrace(640)
	cfg := sramConfig().WithCores(2)
	want, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantB := marshalResult(t, want)
	scratch := new(Scratch)
	for _, slots := range []int{2, 4} {
		// Two runs per depth: the second reuses the scratch's recycled
		// spill slots.
		for round := 0; round < 2; round++ {
			src, err := trace.NewTraceSource(tr)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := runChunked(context.Background(), cfg, src, scratch, 64, slots)
			if err != nil {
				t.Fatalf("slots=%d round=%d: %v", slots, round, err)
			}
			if stats.evacuations == 0 {
				t.Errorf("slots=%d round=%d: skewed stream performed no evacuations; the deadlock path is untested", slots, round)
			}
			if gotB := marshalResult(t, got); !bytes.Equal(gotB, wantB) {
				t.Errorf("slots=%d round=%d: evacuating stream diverged\nstream: %s\nwhole:  %s", slots, round, gotB, wantB)
			}
		}
	}
}

// errorTailSource delivers its trace faithfully, then returns an error
// where a well-behaved source would report exhaustion. The consumer
// finishes before the producer's error can be delivered, so the error
// lands after the consumer is gone — the producer must abandon the
// handoff instead of blocking forever (the run then tears down cleanly
// and returns the completed result).
type errorTailSource struct {
	*trace.TraceSource
	done bool
}

func (s *errorTailSource) ReadChunk(buf []trace.Access) (int, error) {
	n, err := s.TraceSource.ReadChunk(buf)
	if err == nil && n == 0 {
		if s.done {
			return 0, nil
		}
		s.done = true
		return 0, fmt.Errorf("synthetic post-stream failure")
	}
	return n, err
}

// TestStreamProducerErrorAfterConsumerExit: a producer that fails after
// the consumer has everything it needs must not hang the run on a slot
// handoff. Regression test for the free/out channel waits not observing
// the run lifecycle.
func TestStreamProducerErrorAfterConsumerExit(t *testing.T) {
	prof, err := workload.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(prof, workload.Options{Accesses: 10000, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sramConfig().WithCores(2)
	want, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStream(context.Background(), cfg, &errorTailSource{TraceSource: src})
	if err != nil {
		t.Fatalf("completed stream failed on its post-stream producer error: %v", err)
	}
	if gotB, wantB := marshalResult(t, got), marshalResult(t, want); !bytes.Equal(gotB, wantB) {
		t.Errorf("stream with failing tail diverged\nstream: %s\nwhole:  %s", gotB, wantB)
	}
}

// TestStreamCancellationMidRun: cancelling while the pipeline is deep in
// flight (producer possibly blocked on a slot handoff) must unwind both
// goroutines promptly — the deferred shutdown drains the producer, so a
// hang here fails the package timeout.
func TestStreamCancellationMidRun(t *testing.T) {
	prof, err := workload.ByName("ft")
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(prof, workload.Options{Accesses: 50_000_000, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let the run get going before pulling the plug.
		for i := 0; i < 1_000_000; i++ {
			_ = i
		}
		cancel()
	}()
	if _, err := RunStream(ctx, sramConfig().WithCores(4), g); !errorsIsContext(err) {
		t.Fatalf("mid-run cancellation returned %v, want context error", err)
	}
}
