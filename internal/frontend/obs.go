package frontend

import (
	"time"

	"fesplit/internal/obs"
	"fesplit/internal/simnet"
)

// feMetrics are one FE server's resolved registry instruments (labeled
// children of the shared fe_* families).
type feMetrics struct {
	requests       *obs.Counter
	staticFlushes  *obs.Counter
	fetchQuantiles *obs.Sketch
	concurrency    *obs.Gauge
	queueDepth     *obs.Gauge
	beDials        *obs.Counter
	rejections     *obs.Counter
	retries        *obs.Counter
	poolInUse      *obs.Gauge
	poolWait       *obs.Gauge
}

// StartObserving wires this FE's registry metrics (labeled by FE host
// and geographic site) into the observer. It changes what is exported,
// never what the FE hands to OnFetch. Call before traffic; a nil
// observer is a no-op.
func (fe *Server) StartObserving(o *obs.Observer) {
	if reg := o.Registry(); reg != nil {
		host, site := string(fe.host), fe.site.Name
		fe.met = &feMetrics{
			requests: reg.CounterVec("fe_requests_total",
				"client requests handled per front-end", "fe", "site").With(host, site),
			staticFlushes: reg.CounterVec("fe_static_flushes_total",
				"cached static prefixes flushed to clients", "fe", "site").With(host, site),
			fetchQuantiles: reg.SketchVec("fe_fetch_quantiles",
				"ground-truth FE-BE fetch time quantile sketch",
				obs.DefaultSketchAlpha, "fe", "site").With(host, site),
			concurrency: reg.GaugeVec("fe_concurrency",
				"requests concurrently occupying FE workers", "fe", "site").With(host, site),
			queueDepth: reg.GaugeVec("fe_queue_depth",
				"requests queued behind the FE worker pool", "fe", "site").With(host, site),
			beDials: reg.CounterVec("fe_be_dials_total",
				"fresh back-end connections dialed", "fe", "site").With(host, site),
			rejections: reg.CounterVec("fe_rejections_total",
				"client requests refused with 503 at BE-pool admission", "fe", "site").With(host, site),
			retries: reg.CounterVec("fe_be_retries_total",
				"fetch retries issued after a BE 503", "fe", "site").With(host, site),
			poolInUse: reg.GaugeVec("fe_pool_in_use",
				"BE-fetch pool slots currently occupied", "fe", "site").With(host, site),
			poolWait: reg.GaugeVec("fe_pool_wait_depth",
				"fetches waiting for a BE-pool slot", "fe", "site").With(host, site),
		}
	}
}

// refreshQueueGauges mirrors the FE queue's state into the registry
// after every transition (no-op when unobserved).
func (fe *Server) refreshQueueGauges() {
	if m := fe.met; m != nil {
		m.concurrency.Set(float64(fe.queue.Busy()))
		m.queueDepth.Set(float64(fe.queue.Waiting()))
	}
}

// FetchRecord is the server-side ground truth of one handled request,
// keyed by the client connection so it can be joined with the client's
// packet-trace session (capture.ConnKey with Remote = this FE).
type FetchRecord struct {
	// Client identifies the requesting host and its TCP source port.
	Client     string
	ClientPort uint16
	// Arrived is when the GET reached the FE.
	Arrived time.Duration
	// StaticAt is when the cached static prefix was flushed (zero if
	// the response never got that far).
	StaticAt time.Duration
	// FetchDone is when the complete dynamic portion arrived from the
	// back-end (zero on BE error).
	FetchDone time.Duration
	// BE is the data center the fetch went to (empty when the request
	// never reached the BE pool).
	BE simnet.HostID
	// QueueWait is the time the query spent queued behind the BE
	// cluster's replicas, as reported on the response's
	// backend.QueueWaitHeader (zero without the queue model, or when
	// the query started service immediately).
	QueueWait time.Duration
}
