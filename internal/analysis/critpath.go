package analysis

import (
	"time"

	"fesplit/internal/obs"
	"fesplit/internal/obs/critpath"
)

// CritObserver holds the pre-resolved critical-path sketches for one
// (registry, service) pair: one critpath_phase_seconds child per
// exclusive phase, the fetch estimate vs FE ground truth, and the
// conservation self-check counters. Zero value (nil registry) observes
// nothing. It is built once per batch/cell and fed per record.
type CritObserver struct {
	phases  [critpath.NumPhases]*obs.Sketch
	est     *obs.Sketch
	truth   *obs.Sketch
	records *obs.Counter
	breaks  *obs.Counter
}

// NewCritObserver resolves the critical-path sketches for service on
// reg (nil reg → inert observer).
func NewCritObserver(reg *obs.Registry, service string) *CritObserver {
	co := &CritObserver{}
	if reg == nil {
		return co
	}
	v := reg.SketchVec("critpath_phase_seconds",
		"exclusive critical-path phase attribution of end-to-end query time",
		obs.DefaultSketchAlpha, "service", "phase")
	for ph := 0; ph < critpath.NumPhases; ph++ {
		co.phases[ph] = v.With(service, critpath.Phase(ph).String())
	}
	f := reg.SketchVec("critpath_fetch_seconds",
		"FE-BE fetch time: client-side critical-path estimate vs FE ground truth",
		obs.DefaultSketchAlpha, "service", "source")
	co.est = f.With(service, "estimate")
	co.truth = f.With(service, "truth")
	co.records = reg.CounterVec("critpath_records_total",
		"records attributed by the critical-path profiler", "service").With(service)
	co.breaks = reg.CounterVec("critpath_conservation_breaks_total",
		"records whose phase sum missed the end-to-end total (must stay 0)",
		"service").With(service)
	return co
}

// Observe folds one record's attribution into the sketches. Every
// phase is observed (zeros included), so all phase sketches share one
// count and sketch Sum ratios read directly as blame shares.
func (co *CritObserver) Observe(a critpath.Attribution, trueFetch time.Duration) {
	if co == nil || co.records == nil {
		return
	}
	co.records.Inc()
	if !a.Conserved() {
		co.breaks.Inc()
	}
	for ph, d := range a.Phases {
		co.phases[ph].Observe(d.Seconds())
	}
	co.est.Observe(a.FetchEstimate.Seconds())
	if trueFetch > 0 {
		co.truth.Observe(trueFetch.Seconds())
	}
}
