package backend

import (
	"fesplit/internal/obs"
)

// beMetrics are one data center's resolved registry instruments (labeled
// children of the shared be_* families).
type beMetrics struct {
	requests    *obs.Counter
	cacheHits   *obs.Counter
	concurrency *obs.Gauge
	queueDepth  *obs.Gauge
	utilization *obs.Gauge
	rejections  *obs.Counter
}

// StartObserving wires this data center into the observer's registry,
// labeled by BE host. Call before traffic; a nil observer is a no-op.
func (dc *DataCenter) StartObserving(o *obs.Observer) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	host, site := string(dc.host), dc.site.Name
	dc.met = &beMetrics{
		requests: reg.CounterVec("be_requests_total",
			"forwarded queries handled per data center", "be", "site").With(host, site),
		cacheHits: reg.CounterVec("be_cache_hits_total",
			"result-cache hits (0 unless caching enabled)", "be", "site").With(host, site),
		concurrency: reg.GaugeVec("be_concurrency",
			"queries concurrently occupying BE workers", "be", "site").With(host, site),
		queueDepth: reg.GaugeVec("be_queue_depth",
			"queries queued behind the BE worker pool", "be", "site").With(host, site),
		utilization: reg.GaugeVec("be_utilization",
			"fraction of cluster replicas currently in service (queue model)",
			"be", "site").With(host, site),
		rejections: reg.CounterVec("be_rejections_total",
			"queries rejected with 503 at the cluster queue cap", "be", "site").With(host, site),
	}
}
