package analysis

import "fesplit/internal/obs"

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
