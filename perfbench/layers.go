package main

// Layer probes: each single layer timed on fixed design points whose
// traces come from the run's seed, the same in every workload's traced
// run. Where a figure is simulated (a hit rate, a retry count) rather
// than timed, it is deterministic for a seed and says how much a design
// point leans on that layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"nvmllc/internal/cache"
	"nvmllc/internal/dram"
	"nvmllc/internal/engine"
	"nvmllc/internal/fault"
	"nvmllc/internal/nvsim"
	"nvmllc/internal/profile"
	"nvmllc/internal/reference"
	"nvmllc/internal/system"
	"nvmllc/internal/trace"
	"nvmllc/internal/workload"
)

// probeReps is how many times each timed probe repeats; the median is
// reported.
const probeReps = 5

// timeMedian runs prepare (untimed) and then fn, probeReps times, and
// returns fn's median duration.
func timeMedian(prepare, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		if err := prepare(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

func nothing() error { return nil }

func perAccess(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

func generate(name string, opts workload.Options) (*trace.Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, opts)
}

func model(name string) nvsim.LLCModel {
	m, err := reference.ModelByName(reference.FixedCapacityModels(), name)
	if err != nil {
		panic(err) // the names below are Table III's
	}
	return m
}

// simulate runs one design point through system.RunStreamWith over a
// materialized trace, so generation stays out of the timing.
func simulate(ctx context.Context, cfg system.Config, tr *trace.Trace, sc *system.Scratch) (*system.Result, error) {
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		return nil, err
	}
	return system.RunStreamWith(ctx, cfg, src, sc)
}

// probeLayers reports the workload, system, cache, dram, fault and
// profile layers, and the three paired legs.
func probeLayers(ctx context.Context, seed int64, sc scale, m metricSet, t *tally) error {
	opts := workload.Options{Accesses: sc.probeAccesses, Seed: seed + 1}

	// workload: chunked generation over every profile.
	buf := make([]trace.Access, 4096)
	var generated int
	d, err := timeMedian(nothing, func() error {
		generated = 0
		for _, name := range workload.Names() {
			p, err := workload.ByName(name)
			if err != nil {
				return err
			}
			g, err := workload.NewGenerator(p, opts)
			if err != nil {
				return err
			}
			for {
				n, err := g.ReadChunk(buf)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
				generated += n
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("workload probe: %w", err)
	}
	m.set("workload.gen_ns_per_access", perAccess(d, generated), "ns")

	// system: whole design points at 1, 4 and 32 cores.
	single, err := generate("bzip2", opts)
	if err != nil {
		return err
	}
	mt4, err := generate("cg", opts)
	if err != nil {
		return err
	}
	mt32opts := opts
	mt32opts.Threads = 32
	mt32, err := generate("cg", mt32opts)
	if err != nil {
		return err
	}
	sram := system.Gainestown(reference.SRAMBaseline())
	var c4 *system.Result
	for _, p := range []struct {
		name  string
		cores int
		tr    *trace.Trace
	}{{"c1", 1, single}, {"c4", 4, mt4}, {"c32", 32, mt32}} {
		var res *system.Result
		scratch := new(system.Scratch)
		d, err := timeMedian(nothing, func() (err error) {
			res, err = simulate(ctx, sram.WithCores(p.cores), p.tr, scratch)
			return err
		})
		if err != nil {
			return fmt.Errorf("system probe %s: %w", p.name, err)
		}
		m.set("system.ns_per_access."+p.name, perAccess(d, len(p.tr.Accesses)), "ns")
		if p.cores == 4 {
			c4 = res
		}
	}
	kinstr := float64(c4.Instructions) / 1000
	m.set("system.dir.interventions_per_kinstr", ratio(float64(c4.Directory.InterventionStalls), kinstr), "1/kinstr")
	m.set("cache.llc.hit_rate", ratio(float64(c4.LLC.Hits), float64(c4.LLC.Accesses())), "fraction")
	m.set("cache.llc.write_frac", c4.LLC.WriteFraction(), "fraction")
	m.set("cache.l2.hit_rate", c4.L2.HitRate(), "fraction")
	m.set("dram.avg_wait_ns", ratio(c4.DRAM.TotalWaitNS, float64(c4.DRAM.Reads+c4.DRAM.Writes)), "ns")
	m.set("dram.reads_per_kinstr", ratio(float64(c4.DRAM.Reads), kinstr), "1/kinstr")

	// cache, dram and fault: replay the 4-core design point's own trace
	// through each structure on its own.
	if err := replayProbes(mt4, sram, m); err != nil {
		return err
	}
	kang := system.Gainestown(model("Kang_P"))
	kang.Fault = fault.Config{Options: fault.Options{Class: kang.LLC.Class}, PreWearWrites: 2.8e7}
	worn, err := simulate(ctx, kang, mt4, nil)
	if err != nil {
		return fmt.Errorf("fault probe: %w", err)
	}
	m.set("fault.condemned_ways", float64(worn.Degradation.CondemnedWays), "count")
	m.set("fault.write_retries", float64(worn.Degradation.WriteRetries), "count")

	// profile: the filtered reuse-distance pass over the same trace.
	sets, err := cache.SetsFor(sram.LLC.CapacityBytes, sram.BlockBytes, sram.LLCWays)
	if err != nil {
		return err
	}
	h := profile.Hierarchy{BlockBytes: sram.BlockBytes,
		L1I: profile.LevelSpec{CapacityBytes: sram.L1IBytes, Ways: sram.L1IWays},
		L1D: profile.LevelSpec{CapacityBytes: sram.L1DBytes, Ways: sram.L1DWays},
		L2:  profile.LevelSpec{CapacityBytes: sram.L2Bytes, Ways: sram.L2Ways}}
	pcfg := profile.Config{BlockBytes: sram.BlockBytes, SetCounts: []int{sets}, MaxWays: sram.LLCWays}
	psc := new(profile.Scratch)
	var src *trace.TraceSource
	d, err = timeMedian(func() (err error) {
		src, err = trace.NewTraceSource(mt4)
		return err
	}, func() error {
		_, err := profile.RunFiltered(ctx, src, h, pcfg, psc)
		return err
	})
	if err != nil {
		return fmt.Errorf("profile probe: %w", err)
	}
	m.set("profile.ns_per_access", perAccess(d, len(mt4.Accesses)), "ns")

	return pairedLegs(ctx, sc, seed, m, t)
}

// lineOp is one LLC-bound access.
type lineOp struct {
	line  uint64
	write bool
}

// levels builds one core's private caches for cfg.
func levels(cfg system.Config) (l1i, l1d, l2 *cache.Cache, err error) {
	mk := func(name string, bytes int64, ways int) (*cache.Cache, error) {
		return cache.New(cache.Config{Name: name, CapacityBytes: bytes, BlockBytes: cfg.BlockBytes, Ways: ways})
	}
	if l1i, err = mk("L1I", cfg.L1IBytes, cfg.L1IWays); err != nil {
		return
	}
	if l1d, err = mk("L1D", cfg.L1DBytes, cfg.L1DWays); err != nil {
		return
	}
	l2, err = mk("L2", cfg.L2Bytes, cfg.L2Ways)
	return
}

func blockShift(blockBytes int) uint {
	s := uint(0)
	for 1<<s < blockBytes {
		s++
	}
	return s
}

// llcStream strains the trace through per-thread private caches and
// returns what reaches the LLC: demand reads for L2 misses, writes for
// dirty L2 victims.
func llcStream(tr *trace.Trace, cfg system.Config) ([]lineOp, error) {
	type core struct{ l1i, l1d, l2 *cache.Cache }
	cores := make([]core, tr.Threads)
	for i := range cores {
		var err error
		if cores[i].l1i, cores[i].l1d, cores[i].l2, err = levels(cfg); err != nil {
			return nil, err
		}
	}
	shift := blockShift(cfg.BlockBytes)
	var out []lineOp
	for _, a := range tr.Accesses {
		c := &cores[a.Tid]
		line := a.Addr >> shift
		l1 := c.l1d
		if a.Kind == trace.Ifetch {
			l1 = c.l1i
		}
		hit, ev := l1.Access(line, a.Kind == trace.Write)
		if hit {
			continue
		}
		if ev.Valid && ev.Dirty {
			if present, wb := c.l2.WritebackTo(ev.LineAddr); !present && wb.Valid && wb.Dirty {
				out = append(out, lineOp{wb.LineAddr, true})
			}
		}
		if hit, ev := c.l2.Access(line, false); !hit {
			if ev.Valid && ev.Dirty {
				out = append(out, lineOp{ev.LineAddr, true})
			}
			out = append(out, lineOp{line, false})
		}
	}
	return out, nil
}

// replayProbes times Cache.Access (L1D and LLC), Memory.Read and
// Injector.OnWrite on the design point's own access streams. Each
// structure is built outside the timed loop.
func replayProbes(tr *trace.Trace, cfg system.Config, m metricSet) error {
	shift := blockShift(cfg.BlockBytes)
	var data []trace.Access
	for _, a := range tr.Accesses {
		if a.Kind != trace.Ifetch {
			data = append(data, a)
		}
	}
	l1d := make([]*cache.Cache, tr.Threads)
	d, err := timeMedian(func() (err error) {
		for i := range l1d {
			if _, l1d[i], _, err = levels(cfg); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for _, a := range data {
			l1d[a.Tid].Access(a.Addr>>shift, a.Kind == trace.Write)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cache.l1d.access_ns", perAccess(d, len(data)), "ns")

	ops, err := llcStream(tr, cfg)
	if err != nil {
		return err
	}
	var llc *cache.Cache
	newLLC := func() (err error) {
		llc, err = cache.New(cache.Config{Name: "LLC", CapacityBytes: cfg.LLC.CapacityBytes, BlockBytes: cfg.BlockBytes, Ways: cfg.LLCWays})
		return err
	}
	d, err = timeMedian(newLLC, func() error {
		for _, op := range ops {
			llc.Access(op.line, op.write)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cache.llc.access_ns", perAccess(d, len(ops)), "ns")

	// Demand misses read main memory; fills and writebacks write the array.
	if err := newLLC(); err != nil {
		return err
	}
	var misses, writes []uint64
	for _, op := range ops {
		hit, _ := llc.Access(op.line, op.write)
		if !hit && !op.write {
			misses = append(misses, op.line)
		}
		if !hit || op.write {
			writes = append(writes, op.line)
		}
	}

	var mem *dram.Memory
	d, err = timeMedian(func() (err error) {
		mem, err = dram.New(cfg.DRAM)
		return err
	}, func() error {
		now := 0.0
		for _, line := range misses {
			now += 10
			mem.Read(now, line)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("dram.read_ns", perAccess(d, len(misses)), "ns")

	sets, err := cache.SetsFor(cfg.LLC.CapacityBytes, cfg.BlockBytes, cfg.LLCWays)
	if err != nil {
		return err
	}
	inj, err := fault.New(fault.Config{Options: fault.Options{Class: model("Kang_P").Class}}, sets, cfg.LLCWays)
	if err != nil {
		return err
	}
	d, err = timeMedian(func() error {
		inj.Reset()
		return nil
	}, func() error {
		for _, line := range writes {
			inj.OnWrite(line)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("fault.on_write_ns", perAccess(d, len(writes)), "ns")
	return nil
}

// pairedLegs times one fixed design point with and without a mechanism,
// in alternated pairs, and reports the median difference with its
// quartiles: trace sharing on an 8-point sweep, quiescent fault injection
// and epoch sampling.
func pairedLegs(ctx context.Context, sc scale, seed int64, m metricSet, t *tally) error {
	pairs := sc.pairs
	p, err := workload.ByName("cg")
	if err != nil {
		return err
	}
	tr, err := workload.Generate(p, workload.Options{Accesses: sc.legAccesses, Seed: seed + 1})
	if err != nil {
		return err
	}
	var jobs []engine.Job
	sweepOpts := workload.Options{Accesses: sc.shareAccesses, Seed: seed + 1}
	for _, mod := range reference.NVMModels(reference.FixedCapacityModels())[:8] {
		jobs = append(jobs, engine.StreamJob(p, sweepOpts, system.Gainestown(mod)))
	}
	var shared, unshared [][]byte
	sweepLeg := func(extra ...engine.Option) (time.Duration, [][]byte, error) {
		eng := engine.New(append([]engine.Option{engine.WithParallelism(workers)}, extra...)...)
		t0 := time.Now()
		res, err := eng.RunAll(ctx, jobs)
		d := time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		var enc [][]byte
		for _, r := range res {
			b, err := json.Marshal(r)
			if err != nil {
				return 0, nil, err
			}
			enc = append(enc, b)
		}
		return d, enc, nil
	}
	err = pairs3(m, "engine.share_saving_pct", pairs, func() (d time.Duration, err error) {
		d, unshared, err = sweepLeg(engine.WithoutTraceSharing())
		return d, err
	}, func() (d time.Duration, err error) {
		d, shared, err = sweepLeg()
		return d, err
	}, true)
	if err != nil {
		return fmt.Errorf("sharing legs: %w", err)
	}
	t.check(bytes.Equal(bytes.Join(shared, nil), bytes.Join(unshared, nil)), "trace sharing changed a result")

	kang := system.Gainestown(model("Kang_P"))
	point := func(cfg system.Config) func() (time.Duration, error) {
		sc := new(system.Scratch)
		return func() (time.Duration, error) {
			t0 := time.Now()
			_, err := simulate(ctx, cfg, tr, sc)
			return time.Since(t0), err
		}
	}
	quiescent := kang
	quiescent.Fault = fault.Config{Options: fault.Options{Class: kang.LLC.Class, EnduranceWrites: 1e15}}
	if err := pairs3(m, "fault.quiescent_overhead_pct", pairs, point(kang), point(quiescent), false); err != nil {
		return fmt.Errorf("fault legs: %w", err)
	}
	sampled := kang
	sampled.Timeline = &system.TimelineConfig{}
	if err := pairs3(m, "system.sampling_overhead_pct", pairs, point(kang), point(sampled), false); err != nil {
		return fmt.Errorf("sampling legs: %w", err)
	}
	return nil
}

// pairs3 runs n alternated (base, variant) pairs and reports, as name,
// name_q1 and name_q3, the median and quartiles of the per-pair change in
// percent of base: base−variant when saving, variant−base otherwise.
func pairs3(m metricSet, name string, n int, base, variant func() (time.Duration, error), saving bool) error {
	var pct []float64
	for i := 0; i < n; i++ {
		legs := []func() (time.Duration, error){base, variant}
		if i%2 == 1 {
			legs[0], legs[1] = legs[1], legs[0]
		}
		var ds [2]time.Duration
		for j, leg := range legs {
			d, err := leg()
			if err != nil {
				return err
			}
			ds[j] = d
		}
		if i%2 == 1 {
			ds[0], ds[1] = ds[1], ds[0]
		}
		diff := float64(ds[1]-ds[0]) / float64(ds[0]) * 100
		if saving {
			diff = -diff
		}
		pct = append(pct, diff)
	}
	m.set(name, quantile(pct, 0.5), "%")
	m.set(name+"_q1", quantile(pct, 0.25), "%")
	m.set(name+"_q3", quantile(pct, 0.75), "%")
	return nil
}
