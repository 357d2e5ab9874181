package analysis

import "fesplit/internal/obs"

// ObserveParams feeds measured per-session parameters into the
// registry's dimensional quantile sketches, labeled by service and
// phase. The phase dimension carries the paper's Section-2 quantities
// (rtt, tstatic, tdynamic, tdelta, overall), so one family answers
// "p99 Tdynamic for bing-like" directly from the sketch without
// retaining per-record data. It is the family's only feeder: each cell
// that measures sessions calls it once with its parameters in record
// order. A nil registry is a no-op.
func ObserveParams(reg *obs.Registry, service string, params []Params) {
	if reg == nil {
		return
	}
	v := reg.SketchVec("session_param_seconds",
		"per-session Section-2 parameter quantiles",
		obs.DefaultSketchAlpha, "service", "phase")
	rtt, st, dy := v.With(service, "rtt"), v.With(service, "tstatic"), v.With(service, "tdynamic")
	de, ov := v.With(service, "tdelta"), v.With(service, "overall")
	for _, p := range params {
		rtt.Observe(p.RTT.Seconds())
		st.Observe(p.Tstatic.Seconds())
		dy.Observe(p.Tdynamic.Seconds())
		de.Observe(p.Tdelta.Seconds())
		ov.Observe(p.Overall.Seconds())
	}
}
