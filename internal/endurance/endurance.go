// Package endurance estimates NVM-based LLC lifetime from simulated write
// wear, the study the paper's Section VII names as future work: "Future
// work will characterize the extent to which architecture-agnostic
// features ... will affect the lifetime of different NVMs."
//
// The model is the standard first-cell-failure estimate used by the
// wear-leveling literature the paper cites (WriteSmoothing [20],
// EqualWrites [39]): a cache dies when its most-written physical line
// reaches the technology's write endurance, so
//
//	lifetime = endurance / (writes to the hottest line per second).
//
// Two estimates are produced: raw (the hottest logical line keeps mapping
// to one physical line) and ideally wear-leveled (the hottest set's writes
// spread evenly across its ways — an upper bound for intra-set schemes
// like WriteSmoothing).
//
// What happens past first failure — the cache serving on at degraded
// capacity with faulty blocks disabled — is simulated rather than
// estimated: see internal/fault and the sweep's degradation artifact.
// Both models share one configuration type: Options is internal/fault's
// Options, so the endurance budget that parameterizes the analytical
// projection is exactly the one the fault process draws thresholds from.
package endurance

import (
	"fmt"
	"math"

	"nvmllc/internal/fault"
	"nvmllc/internal/nvm"
	"nvmllc/internal/system"
)

// Options selects the endurance budget for an estimate: the technology
// class (Table I budget) with an optional explicit override. It is the
// fault model's configuration core, aliased so the analytical estimate
// and the fault process cannot drift apart.
type Options = fault.Options

// WriteEndurance returns the per-cell write endurance for a technology
// class, from the paper's Table I (see nvm.WriteEndurance, where the
// table now lives).
func WriteEndurance(class nvm.Class) float64 { return nvm.WriteEndurance(class) }

// SecondsPerYear converts write rates to calendar lifetimes.
const SecondsPerYear = 365.25 * 24 * 3600

// Projection is a lifetime projection for one (workload, LLC) run.
type Projection struct {
	// Workload and LLC identify the run.
	Workload, LLC string
	// Class is the LLC's technology class.
	Class nvm.Class
	// EnduranceWrites is the per-cell write budget the projection used.
	EnduranceWrites float64
	// HottestLineWritesPerSec is the raw wear rate of the most-written
	// line.
	HottestLineWritesPerSec float64
	// LeveledWritesPerSec is the wear rate under ideal intra-set leveling.
	LeveledWritesPerSec float64
	// RawYears and LeveledYears are the projected lifetimes; +Inf for
	// non-wearing technologies or idle caches.
	RawYears, LeveledYears float64
	// ImbalanceFactor is the lifetime a wear-leveling scheme could
	// recover (LeveledYears / RawYears, ≥ 1).
	ImbalanceFactor float64
}

// Estimate derives the lifetime projection from a simulation run that was
// executed with system.Config.TrackWear set, under the endurance budget
// the options resolve to.
func Estimate(r *system.Result, opts Options) (Projection, error) {
	if r.Wear == nil {
		return Projection{}, fmt.Errorf("endurance: result for %s/%s has no wear data (set Config.TrackWear)", r.Workload, r.LLCName)
	}
	secs := r.Seconds()
	if secs <= 0 {
		return Projection{}, fmt.Errorf("endurance: result for %s/%s has no execution time", r.Workload, r.LLCName)
	}
	e := Projection{
		Workload:                r.Workload,
		LLC:                     r.LLCName,
		Class:                   opts.Class,
		EnduranceWrites:         opts.Endurance(),
		HottestLineWritesPerSec: float64(r.Wear.MaxLineWrites) / secs,
		LeveledWritesPerSec:     float64(r.Wear.LeveledMaxLineWrites()) / secs,
		ImbalanceFactor:         r.Wear.ImbalanceFactor(),
	}
	e.RawYears = years(e.EnduranceWrites, e.HottestLineWritesPerSec)
	e.LeveledYears = years(e.EnduranceWrites, e.LeveledWritesPerSec)
	return e, nil
}

// years converts an endurance budget and a wear rate to calendar years.
func years(enduranceWrites, writesPerSec float64) float64 {
	if writesPerSec <= 0 || math.IsInf(enduranceWrites, 1) {
		return math.Inf(1)
	}
	return enduranceWrites / writesPerSec / SecondsPerYear
}

// Viable reports whether the raw lifetime clears a deployment threshold
// (the 5-year server-lifetime bar common in the endurance literature).
func (e Projection) Viable(yearsRequired float64) bool {
	return e.RawYears >= yearsRequired
}
