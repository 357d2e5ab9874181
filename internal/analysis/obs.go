package analysis

import (
	"time"

	"fesplit/internal/emulator"
	"fesplit/internal/obs"
)

// ParamObserver holds the five pre-resolved session_param_seconds
// sketches for one (registry, service) pair, so per-record streaming
// can feed parameters one at a time without re-resolving sketch
// handles. Zero value (nil registry) observes nothing.
type ParamObserver struct {
	rtt, st, dy, de, ov *obs.Sketch
}

// NewParamObserver resolves the phase sketches for service on reg
// (nil reg → inert observer).
func NewParamObserver(reg *obs.Registry, service string) *ParamObserver {
	po := &ParamObserver{}
	if reg == nil {
		return po
	}
	v := reg.SketchVec("session_param_seconds",
		"per-session Section-2 parameter quantiles",
		obs.DefaultSketchAlpha, "service", "phase")
	po.rtt = v.With(service, "rtt")
	po.st = v.With(service, "tstatic")
	po.dy = v.With(service, "tdynamic")
	po.de = v.With(service, "tdelta")
	po.ov = v.With(service, "overall")
	return po
}

// Observe feeds one session's parameters into the sketches.
func (po *ParamObserver) Observe(p Params) {
	if po == nil || po.rtt == nil {
		return
	}
	po.rtt.Observe(p.RTT.Seconds())
	po.st.Observe(p.Tstatic.Seconds())
	po.dy.Observe(p.Tdynamic.Seconds())
	po.de.Observe(p.Tdelta.Seconds())
	po.ov.Observe(p.Overall.Seconds())
}

// ObserveParams feeds measured per-session parameters into the
// registry's dimensional quantile sketches, labeled by service and
// phase. The phase dimension carries the paper's Section-2 quantities
// (rtt, tstatic, tdynamic, tdelta, overall), so one family answers
// "p99 Tdynamic for bing-like" directly from the sketch without
// retaining per-record data. A nil registry is a no-op.
func ObserveParams(reg *obs.Registry, service string, params []Params) {
	if reg == nil {
		return
	}
	po := NewParamObserver(reg, service)
	for _, p := range params {
		po.Observe(p)
	}
}

// SampleTails offers every measurable record of a dataset to the tail
// sampler, so Select retains span trees only for queries in the
// Tdynamic tail or violating the inference bound. The offered value is
// Tdynamic; the violation flag fires when the FE-side ground-truth
// fetch time falls outside Tdelta ≤ Tfetch ≤ Tdynamic (paper equation
// 1) by more than tol — those queries falsify the inference framework
// and must always be retained, however fast they were. tol absorbs
// access-link jitter: the client-side bounds come from two observed
// packets, each shifted by up to one jitter draw, so pass about twice
// the fleet's access jitter (the same tolerance the bounds validation
// uses) to avoid flagging measurement noise as model violations.
//
// boundary ≤ 0 derives the static/dynamic boundary from the dataset
// first (BoundaryFromDataset). Records without an assembled span, or
// that ExtractRecord cannot measure, are skipped. Returns how many
// records were offered and how many carried violations.
func SampleTails(ts *obs.TailSampler, ds *emulator.Dataset, boundary int, tol time.Duration) (offered, violations int) {
	if ts == nil {
		return 0, 0
	}
	if boundary <= 0 {
		boundary = BoundaryFromDataset(ds)
		if boundary <= 0 {
			return 0, 0
		}
	}
	for i := range ds.Records {
		rr := &ds.Records[i]
		if rr.Span == nil {
			continue
		}
		p, _, err := ExtractRecord(rr, boundary)
		if err != nil {
			continue
		}
		violation := p.ViolatesBounds(rr.TrueFetch, tol)
		ts.Offer(p.Tdynamic.Seconds(), violation, rr.Span)
		if violation {
			violations++
		}
		offered++
	}
	return offered, violations
}
