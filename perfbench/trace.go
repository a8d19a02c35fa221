package main

// Benchmark-side tracing and the small statistics the report needs. Spans
// are recorded only from this package, around the calls it makes into the
// simulator's layers; nothing here reaches inside internal/.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval. Start and End are nanoseconds since the
// recorder was created; Parent is 0 for a root span. Job ties together the
// spans of one llcsimd job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Job    string `json:"job,omitempty"`
	Attr   string `json:"attr,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so timed code calls it
// unconditionally.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newID reserves a span id, so children can name their parent before the
// parent's interval is complete.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// record stores a finished span under a reserved id (0 reserves one).
func (r *recorder) record(id, parent int64, name, job, attr string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Job: job, Attr: attr,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// layerTime is one span name's aggregate: how many spans, their summed
// duration and their self time (duration not covered by child spans).
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates the recorded spans by name. Children of one span
// may overlap (the engine runs two design points at once), so the covered
// part is the union of their intervals, clipped to the parent.
func (r *recorder) selfTimes() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for _, s := range r.spans {
		covered := coverage(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Count++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(s.End-s.Start-covered) / 1e9
		out[s.Name] = lt
	}
	return out
}

// coverage is the length of the union of intervals inside [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeJSON writes every span and the per-layer self times to path.
func (r *recorder) writeJSON(path string) error {
	layers := r.selfTimes()
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Layers map[string]layerTime `json:"layers"`
	}{r.spans, layers})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile is the q-quantile (0..1) of xs by linear interpolation between
// closest ranks; it sorts xs in place. Zero for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// heapSampler polls the heap's object bytes (live and not yet collected)
// from runtime/metrics and keeps the maximum it has seen, the
// peak_heap_mib figure.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: readHeap()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, readHeap())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.peak = max(h.peak, readHeap())
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters snapshots allocation and GC totals, for the runtime.*
// per-layer metrics.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNS    uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNS: mem.PauseTotalNs}
}

func (a runtimeCounters) since(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.pauseNS - b.pauseNS}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.pauseNS + b.pauseNS}
}

// tally counts checked operations and failures for the result line.
type tally struct {
	attempted, failed int
}

// check counts one checked operation; a failure is reported on stderr.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}
