// Package backend models a back-end data center: the component "deep in
// the cloud" that dynamically generates search results. Its two knobs
// are the ones the paper's inference framework estimates from outside —
// the per-query processing time T_proc (regression intercept of Figure
// 9) and its variability (Bing's fetch times are "larger and show higher
// variability" than Google's).
//
// A data center serves Content-Length-framed HTTP on BEPort so front-end
// servers can hold persistent connections to it (split TCP). It responds
// with the query's dynamic content portion only; the static prefix is
// the front-end's job.
package backend

import (
	"math/rand"
	"strconv"
	"time"

	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// BEPort is the HTTP port data centers listen on (FE-facing).
const BEPort = 8080

// QueueWaitHeader carries the time a query spent queued behind the BE
// cluster's replicas, in integer nanoseconds, on 200 responses. It is
// emitted ONLY when the wait is nonzero, so an unloaded cluster's wire
// bytes stay byte-identical to an unbounded one's.
const QueueWaitHeader = "X-Queue-Wait"

// Options configures a data center beyond its cost model.
type Options struct {
	// CacheResults enables a BE-side result cache keyed by the exact
	// keyword string: a repeated query returns in CacheHitTime
	// regardless of the cost model. The deployed services keep this
	// OFF (the paper finds FE servers do not cache search results and
	// personalization defeats result reuse); the caching-detection
	// experiment flips it on to validate that the methodology would
	// notice.
	CacheResults bool
	// CacheHitTime is the processing time of a cache hit.
	CacheHitTime time.Duration
	// ServeFullPage makes the data center return the complete page
	// (static prefix + dynamic body) instead of the dynamic portion
	// only. Used by the no-FE baseline, where clients talk straight to
	// the data center and nothing caches the static part.
	ServeFullPage bool
	// LengthOnly makes the data center answer with content-free bodies:
	// every response has the length, headers, timing and random draws
	// of the materialised one, but the body bytes are never built
	// (workload.ContentSpec.DynamicLen instead of DynamicBody). For
	// worlds whose clients read packet timings and sizes only.
	LengthOnly bool
	// TCP overrides the data center's endpoint configuration. The
	// zero value defaults to a large initial window (10 segments),
	// appropriate for warm intra-cloud FE connections; the no-FE
	// baseline sets the era-faithful IW=3 (RFC 3390) instead.
	TCP tcpsim.Config
	// Queue is the data center's service queue (see queue.go and
	// docs/OPERATING.md §3). With Queue.Replicas > 0 overload inflates
	// fetch times mechanistically ("the load on servers at the data
	// centers"): per-replica Lindley queueing, a cluster load balancer,
	// a bounded backlog with 503 rejection, and the queue wait reported
	// on the QueueWaitHeader. The zero value serves every query at once
	// after its sampled Tproc.
	Queue QueueOptions
}

func (o Options) withDefaults() Options {
	if o.CacheHitTime <= 0 {
		o.CacheHitTime = 5 * time.Millisecond
	}
	return o
}

// DataCenter is one simulated back-end site.
type DataCenter struct {
	host simnet.HostID
	site geo.Site
	ep   *tcpsim.Endpoint
	spec workload.ContentSpec
	cost workload.CostModel
	opts Options
	rng  *rand.Rand

	load Load

	cache map[string]respBody

	cluster *Cluster
	replies []*reply // free replies, reused by the next respondAfter

	// counters
	served    int
	cacheHits int

	// observability (StartObserving)
	met *beMetrics
}

// respBody is a response body: its length, and its bytes unless the
// data center is length-only.
type respBody struct {
	n int
	b []byte
}

// New builds a data center attached to the network as host, serving the
// given content spec and cost model. The endpoint uses a large initial
// window: data-center stacks keep warm connections to their FEs.
func New(n *simnet.Network, host simnet.HostID, site geo.Site, spec workload.ContentSpec,
	cost workload.CostModel, opts Options, seed int64) (*DataCenter, error) {
	dc := &DataCenter{
		host:  host,
		site:  site,
		spec:  spec,
		cost:  cost,
		opts:  opts.withDefaults(),
		rng:   stats.NewRand(seed),
		load:  NewLoad(),
		cache: make(map[string]respBody),
	}
	tcpCfg := dc.opts.TCP
	if tcpCfg == (tcpsim.Config{}) {
		tcpCfg = tcpsim.Config{InitialCwnd: 10} // warm intra-cloud connections
	}
	dc.ep = tcpsim.NewEndpoint(n, host, tcpCfg)
	dc.cluster = NewCluster(dc.ep.Sim(), dc.opts.Queue, dc.refreshQueueGauges)
	if _, err := httpsim.NewServer(dc.ep, BEPort, dc.handle); err != nil {
		return nil, err
	}
	return dc, nil
}

// Host returns the data center's network host ID.
func (dc *DataCenter) Host() simnet.HostID { return dc.host }

// Endpoint exposes the data center's TCP endpoint (for taps and metrics).
func (dc *DataCenter) Endpoint() *tcpsim.Endpoint { return dc.ep }

// Site returns the data center's geographic site.
func (dc *DataCenter) Site() geo.Site { return dc.site }

// Served returns the number of queries answered.
func (dc *DataCenter) Served() int { return dc.served }

// CacheHits returns the number of result-cache hits (0 unless
// Options.CacheResults).
func (dc *DataCenter) CacheHits() int { return dc.cacheHits }

// handle answers one forwarded search query after the modeled
// processing time.
func (dc *DataCenter) handle(w *httpsim.ResponseWriter, r *httpsim.Request) {
	q, err := workload.ParsePath(r.Path)
	if err != nil {
		w.WriteHeaderLength(400, 0, nil)
		w.End()
		return
	}
	dc.served++
	if m := dc.met; m != nil {
		m.requests.Inc()
	}

	if dc.opts.CacheResults {
		if body, hit := dc.cache[q.Keywords]; hit {
			dc.cacheHits++
			if m := dc.met; m != nil {
				m.cacheHits.Inc()
			}
			dc.respondAfter(w, body, dc.opts.CacheHitTime)
			return
		}
	}

	proc := dc.cost.Sample(q, dc.load.At(dc.ep.Sim().Now(), dc.rng), dc.rng)
	var body respBody
	if dc.opts.LengthOnly {
		body.n = dc.spec.DynamicLen(q, dc.rng)
	} else {
		body.b = dc.spec.DynamicBody(q, dc.rng)
		body.n = len(body.b)
	}
	if dc.opts.CacheResults {
		dc.cache[q.Keywords] = body
	}
	if dc.opts.ServeFullPage {
		static := dc.spec.StaticPrefix()
		body.n += len(static)
		if !dc.opts.LengthOnly {
			body.b = append(static, body.b...)
		}
	}
	dc.respondAfter(w, body, proc)
}

// write sends a response body, content-free when the data center is
// length-only.
func (dc *DataCenter) write(w *httpsim.ResponseWriter, body respBody) {
	if dc.opts.LengthOnly {
		w.WriteBlank(body.n)
	} else {
		w.Write(body.b)
	}
}

// respondAfter answers w with body once the cluster has served the
// query for d.
func (dc *DataCenter) respondAfter(w *httpsim.ResponseWriter, body respBody, d time.Duration) {
	rp := dc.newReply(w, body)
	if !dc.cluster.Submit(d, rp.sendFn) {
		rp.release()
		if m := dc.met; m != nil {
			m.rejections.Inc()
		}
		w.WriteHeaderLength(503, 0, nil)
		w.End()
	}
}

// reply is one response waiting for its service to finish, bound once
// and recycled, so a served query allocates none of it.
type reply struct {
	dc     *DataCenter
	w      *httpsim.ResponseWriter
	body   respBody
	sendFn func(wait time.Duration)
}

func (dc *DataCenter) newReply(w *httpsim.ResponseWriter, body respBody) *reply {
	var rp *reply
	if n := len(dc.replies); n > 0 {
		rp, dc.replies = dc.replies[n-1], dc.replies[:n-1]
	} else {
		rp = &reply{dc: dc}
		rp.sendFn = rp.send
	}
	rp.w, rp.body = w, body
	return rp
}

func (rp *reply) release() {
	rp.w, rp.body = nil, respBody{}
	rp.dc.replies = append(rp.dc.replies, rp)
}

// send writes the response once its service completes.
func (rp *reply) send(wait time.Duration) {
	dc, w, body := rp.dc, rp.w, rp.body
	rp.release()
	var hdr httpsim.Header
	if wait > 0 {
		// Report the queue share of the fetch so the FE (and the
		// critical-path attribution downstream) can split Tfetch into
		// queueing vs processing. Emitted only when nonzero: an
		// unloaded cluster's responses stay byte-identical to an
		// unbounded one's.
		hdr = httpsim.Header{QueueWaitHeader: strconv.FormatInt(int64(wait), 10)}
	}
	w.WriteHeaderLength(200, body.n, hdr)
	dc.write(w, body)
	w.End()
}

// refreshQueueGauges mirrors the cluster's state into the registry after
// every transition (no-op when unobserved).
func (dc *DataCenter) refreshQueueGauges() {
	m := dc.met
	if m == nil {
		return
	}
	c := dc.cluster
	m.queueDepth.Set(float64(c.Waiting()))
	m.concurrency.Set(float64(c.Busy()))
	if c.Replicas() > 0 {
		m.utilization.Set(float64(c.Busy()) / float64(c.Replicas()))
	}
}

// MaxQueueLen returns the deepest backlog the cluster has held.
func (dc *DataCenter) MaxQueueLen() int { return dc.cluster.MaxQueueLen() }

// Rejected returns the number of queries refused with a 503 at the
// cluster queue cap.
func (dc *DataCenter) Rejected() int { return dc.cluster.Rejected() }

// Cluster exposes the data center's service queue for scenario probes
// and tests.
func (dc *DataCenter) Cluster() *Cluster { return dc.cluster }

// BingCostModel is the calibrated Bing-like back-end: large, variable
// processing times (the paper's Figure 9 intercept, a row of the root
// scorecard; Figures 7-8 show high variance).
func BingCostModel() workload.CostModel {
	return workload.CostModel{
		Base:            180 * time.Millisecond,
		PerTerm:         12 * time.Millisecond,
		PopularDiscount: 0.7,
		CV:              0.35,
		LoadAmplitude:   0.25,
	}
}

// GoogleCostModel is the calibrated Google-like back-end: small, stable
// processing times, tuned so the Figure-9 regression intercept and the
// Tdelta threshold land near the paper's (the root scorecard's rows).
func GoogleCostModel() workload.CostModel {
	return workload.CostModel{
		Base:            32 * time.Millisecond,
		PerTerm:         2 * time.Millisecond,
		PopularDiscount: 0.7,
		CV:              0.12,
		LoadAmplitude:   0.08,
	}
}
