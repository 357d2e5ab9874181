package main

import (
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
)

// Readers for the counts the program already publishes (source C):
// the obs.Registry of an attached Observer and RuntimeEngine.Snapshot.

func sumCounters(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, f := range reg.Families() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series() {
			if s.Counter != nil {
				sum += s.Counter.Value()
			}
		}
	}
	return sum
}

// maxGauge is the largest watermark any series of a gauge family saw.
func maxGauge(reg *obs.Registry, name string) float64 {
	var max float64
	for _, f := range reg.Families() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series() {
			if s.Gauge != nil && s.Gauge.Max() > max {
				max = s.Gauge.Max()
			}
		}
	}
	return max
}

func countSeries(reg *obs.Registry) int {
	n := 0
	for _, f := range reg.Families() {
		n += len(f.Series())
	}
	return n
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineCounts turns one repetition's engine snapshot into per-query
// counts. The engine sees every world of the repetition.
func engineCounts(dst map[string]float64, snap rt.Snapshot, queries float64) {
	dst["simnet.events_per_query"] = ratio(float64(snap.Events), queries)
	dst["simnet.heap_depth_max"] = float64(snap.HeapDepthMax)
	fp := snap.Fastpath
	dst["tcpsim.fastlane_segments_per_query"] = ratio(float64(fp.Segments), queries)
	dst["tcpsim.fastlane_fallbacks_per_kquery"] = 1e3 * ratio(float64(fp.Fallbacks), queries)
	dst["tcpsim.fastlane_epoch_segments"] = ratio(float64(fp.Segments), float64(fp.Epochs))
}

// registryCounts reads the simnet/tcpsim/frontend/backend families.
// Their per-query figures divide by the requests the observed
// front-ends handled, so they stay self-consistent when only part of a
// workload's worlds carry an observer (study-observed: the figA and
// queue cells).
func registryCounts(dst map[string]float64, reg *obs.Registry, fastSegments float64) {
	reqs := sumCounters(reg, "fe_requests_total")
	packets := sumCounters(reg, "net_packets_sent_total")
	segs := sumCounters(reg, "tcp_segments_sent_total")
	dst["simnet.packets_per_query"] = ratio(packets, reqs)
	dst["simnet.drop_share"] = ratio(sumCounters(reg, "net_packets_dropped_total"), packets)
	dst["tcpsim.segments_per_query"] = ratio(segs, reqs)
	dst["tcpsim.retransmit_share"] = ratio(sumCounters(reg, "tcp_retransmits_total"), segs)
	dst["tcpsim.rto_per_kquery"] = 1e3 * ratio(sumCounters(reg, "tcp_rtos_total"), reqs)
	dst["tcpsim.conns_per_query"] = ratio(sumCounters(reg, "tcp_conns_opened_total"), reqs)
	dst["tcpsim.fastlane_segment_share"] = ratio(fastSegments, segs)
	dst["frontend.requests_per_query"] = ratio(reqs, reqs)
	dst["frontend.be_dials_per_kquery"] = 1e3 * ratio(sumCounters(reg, "fe_be_dials_total"), reqs)
	dst["frontend.rejections_per_kquery"] = 1e3 * ratio(sumCounters(reg, "fe_rejections_total"), reqs)
	dst["frontend.retries_per_kquery"] = 1e3 * ratio(sumCounters(reg, "fe_be_retries_total"), reqs)
	dst["frontend.pool_wait_depth_max"] = maxGauge(reg, "fe_pool_wait_depth")
	dst["backend.requests_per_query"] = ratio(sumCounters(reg, "be_requests_total"), reqs)
	dst["backend.rejections_per_kquery"] = 1e3 * ratio(sumCounters(reg, "be_rejections_total"), reqs)
	dst["backend.queue_depth_max"] = maxGauge(reg, "be_queue_depth")
	dst["backend.utilization_max"] = maxGauge(reg, "be_utilization")
}
