package system

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"nvmllc/internal/reference"
	"nvmllc/internal/trace"
)

func TestWearTrackingDisabledByDefault(t *testing.T) {
	tr := streamTrace("nowear", 10000, 50000, 3, 1)
	r, err := Run(context.Background(), sramConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Wear != nil {
		t.Error("wear stats present without TrackWear")
	}
}

func TestWearTrackingCountsAllLLCWrites(t *testing.T) {
	tr := streamTrace("wear", 100000, 200000, 2, 1)
	cfg := sramConfig()
	cfg.TrackWear = true
	r, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Wear == nil {
		t.Fatal("no wear stats")
	}
	if r.Wear.TotalWrites != r.LLC.Writes {
		t.Errorf("wear total %d != LLC writes %d", r.Wear.TotalWrites, r.LLC.Writes)
	}
	if r.Wear.MaxLineWrites == 0 || r.Wear.LinesTouched == 0 {
		t.Errorf("empty wear stats: %+v", r.Wear)
	}
	if r.Wear.MaxSetWrites < r.Wear.MaxLineWrites {
		t.Errorf("hottest set %d below hottest line %d", r.Wear.MaxSetWrites, r.Wear.MaxLineWrites)
	}
	if r.Wear.Ways != 16 || r.Wear.Sets != 2048 {
		t.Errorf("geometry = %d ways × %d sets, want 16 × 2048", r.Wear.Ways, r.Wear.Sets)
	}
}

func TestWearLeveledBound(t *testing.T) {
	s := WearStats{MaxLineWrites: 100, MaxSetWrites: 160, Ways: 16}
	if got := s.LeveledMaxLineWrites(); got != 10 {
		t.Errorf("leveled max = %d, want 10", got)
	}
	if f := s.ImbalanceFactor(); f != 10 {
		t.Errorf("imbalance = %g, want 10", f)
	}
	// Leveling can never make wear look worse than 1×.
	balanced := WearStats{MaxLineWrites: 10, MaxSetWrites: 160, Ways: 16}
	if f := balanced.ImbalanceFactor(); f != 1 {
		t.Errorf("balanced imbalance = %g, want 1", f)
	}
	// Degenerate geometry falls back to raw.
	raw := WearStats{MaxLineWrites: 7}
	if raw.LeveledMaxLineWrites() != 7 {
		t.Error("degenerate leveled wear wrong")
	}
	if (WearStats{}).ImbalanceFactor() != 1 {
		t.Error("empty imbalance should be 1")
	}
}

func TestWearHotLineDominates(t *testing.T) {
	// One line written once per pass of a large streaming sweep (so the
	// private caches evict it and the write reaches the LLC every pass):
	// its LLC wear must dominate its set, making the imbalance factor
	// clearly exceed 1.
	tr := &trace.Trace{Name: "hotline", Threads: 1}
	hot := uint64(0x100000)
	const sweepLines = 8192 // 512KB: flushes L1 and L2 each pass
	for pass := 0; pass < 50; pass++ {
		tr.Accesses = append(tr.Accesses, trace.Access{Addr: hot, Kind: trace.Write})
		for l := 0; l < sweepLines; l++ {
			tr.Accesses = append(tr.Accesses, trace.Access{
				Addr: uint64(l)*64 + 1<<30, Kind: trace.Write})
		}
	}
	tr.InstrCount = uint64(len(tr.Accesses)) * 3
	cfg := Gainestown(reference.SRAMBaseline())
	cfg.TrackWear = true
	r, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Wear.ImbalanceFactor() <= 1.5 {
		t.Errorf("imbalance = %g, want > 1.5 for a hot-line workload", r.Wear.ImbalanceFactor())
	}
}

func TestSetDispersion(t *testing.T) {
	// Perfectly uniform wear: no spread by either measure.
	cov, gini := setDispersion([]uint64{5, 5, 5, 5})
	if cov != 0 || gini != 0 {
		t.Errorf("uniform dispersion = (%g, %g), want (0, 0)", cov, gini)
	}
	// All wear on one of four sets: CoV = sqrt(3), Gini = 3/4.
	cov, gini = setDispersion([]uint64{12, 0, 0, 0})
	if cov < 1.73 || cov > 1.74 {
		t.Errorf("concentrated CoV = %g, want sqrt(3)", cov)
	}
	if gini != 0.75 {
		t.Errorf("concentrated Gini = %g, want 0.75", gini)
	}
	// Degenerate inputs are quiet zeros.
	if c, g := setDispersion(nil); c != 0 || g != 0 {
		t.Errorf("nil dispersion = (%g, %g)", c, g)
	}
	if c, g := setDispersion([]uint64{0, 0}); c != 0 || g != 0 {
		t.Errorf("idle dispersion = (%g, %g)", c, g)
	}
}

func TestWearStatsIncludeDispersion(t *testing.T) {
	tr := streamTrace("disp", 30000, 90000, 2, 2)
	cfg := sramConfig()
	cfg.TrackWear = true
	r, err := Run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Wear == nil {
		t.Fatal("no wear stats")
	}
	if r.Wear.SetWriteCoV < 0 || r.Wear.SetWriteGini < 0 || r.Wear.SetWriteGini >= 1 {
		t.Errorf("dispersion out of range: CoV %g, Gini %g", r.Wear.SetWriteCoV, r.Wear.SetWriteGini)
	}
}

// TestWearScratchRecycled pins the satellite: back-to-back wear-tracked
// runs through one Scratch reuse the tracker's line table and per-set
// slice instead of reallocating them, without perturbing results.
func TestWearScratchRecycled(t *testing.T) {
	tr := streamTrace("recycle", 20000, 60000, 2, 2)
	cfg := sramConfig()
	cfg.TrackWear = true
	var scratch Scratch
	first, err := runWith(context.Background(), cfg, tr, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if scratch.wearLines.Cap() == 0 || scratch.wearSets == nil {
		t.Fatal("scratch did not retain wear storage after the run")
	}
	retained := scratch.wearLines.Cap()
	second, err := runWith(context.Background(), cfg, tr, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if scratch.wearLines.Cap() != retained {
		t.Errorf("second run left %d table slots, the first %d: it reallocated instead of recycling", scratch.wearLines.Cap(), retained)
	}
	// Taking over warm storage allocates the tracker itself and nothing
	// else.
	sets, n := len(scratch.wearSets[:cap(scratch.wearSets)]), int64(len(tr.Accesses))
	if allocs := testing.AllocsPerRun(10, func() {
		w := newWearTracker(sets, 16, n, &scratch)
		scratch.wearLines, scratch.wearSets = w.lineWrites, w.setWrites[:0]
	}); allocs > 1 {
		t.Errorf("a tracker on recycled storage allocates %v times, want 1", allocs)
	}
	if !reflect.DeepEqual(first.Wear, second.Wear) {
		t.Errorf("recycled run diverged: %+v vs %+v", first.Wear, second.Wear)
	}
}

// TestWearStatsMatchMapOracle records random line writes into trackers
// that share one Scratch, each run with its own geometry and access
// bound, and checks every WearStats field against a Go-map oracle of
// the same writes. Runs alternate large and small, so a tracker that
// kept a line from an earlier run, or lost one when its table grew past
// the recycled storage, shows as a wrong count.
func TestWearStatsMatchMapOracle(t *testing.T) {
	var scratch Scratch
	rng := rand.New(rand.NewSource(11))
	for run, shape := range []struct {
		sets, ways, lines, writes int
	}{
		{2048, 16, 50000, 200000}, // grows well past the recycle floor
		{64, 4, 300, 5000},
		{1024, 8, 20000, 60000},
		{16, 2, 1, 10},
		{4096, 16, 80000, 100000},
	} {
		w := newWearTracker(shape.sets, shape.ways, int64(shape.writes), &scratch)
		lineRef := map[uint64]uint64{}
		setRef := make([]uint64, shape.sets)
		for i := 0; i < shape.writes; i++ {
			line := uint64(rng.Intn(shape.lines)) * 0x10001 // spread keys over sets and tags
			w.Record(line)
			lineRef[line]++
			setRef[line&uint64(shape.sets-1)]++
		}
		want := WearStats{
			TotalWrites:  uint64(shape.writes),
			LinesTouched: len(lineRef),
			Ways:         shape.ways,
			Sets:         shape.sets,
		}
		for _, c := range lineRef {
			want.MaxLineWrites = max(want.MaxLineWrites, c)
		}
		for _, c := range setRef {
			want.MaxSetWrites = max(want.MaxSetWrites, c)
		}
		want.SetWriteCoV, want.SetWriteGini = setDispersion(setRef)
		if got := w.Stats(); got != want {
			t.Errorf("run %d: stats %+v, map oracle %+v", run, got, want)
		}
		scratch.wearLines, scratch.wearSets = w.lineWrites, w.setWrites[:0]
	}
}
