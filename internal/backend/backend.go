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
// bytes stay byte-identical to the queue-less data center's.
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
	// LoadTick is how often the AR(1) load process advances.
	LoadTick time.Duration
	// LoadPhi is the AR(1) correlation (default 0.9).
	LoadPhi float64
	// Workers bounds concurrent query processing; excess queries queue
	// FIFO, so sustained overload inflates fetch times mechanistically
	// ("the load on servers at the data centers"). 0 = unlimited —
	// load is then modeled statistically via the AR(1) term only.
	Workers int
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
	// Queue, when Queue.Replicas > 0, replaces the implicit FIFO with
	// the replicated multi-server queue model (see queue.go and
	// docs/QUEUEING.md): per-replica Lindley queueing, a cluster load
	// balancer, a bounded backlog with 503 rejection, and the queue
	// wait reported on the QueueWaitHeader. The zero value keeps the
	// legacy fixed-Tproc path; Workers is ignored when the cluster is
	// enabled (the replica count bounds concurrency instead).
	Queue QueueOptions
}

func (o Options) withDefaults() Options {
	if o.CacheHitTime <= 0 {
		o.CacheHitTime = 5 * time.Millisecond
	}
	if o.LoadTick <= 0 {
		o.LoadTick = 500 * time.Millisecond
	}
	if o.LoadPhi == 0 {
		o.LoadPhi = 0.9
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

	load       stats.AR1
	lastLoadAt time.Duration

	cache map[string]respBody

	// worker-pool state (Options.Workers > 0)
	busy  int
	queue []beJob

	// replicated queue model (Options.Queue.Replicas > 0)
	cluster *Cluster

	// counters
	served    int
	cacheHits int
	maxQueue  int
	rejected  int

	// observability (StartObserving)
	met *beMetrics
}

// respBody is a response body: its length, and its bytes unless the
// data center is length-only.
type respBody struct {
	n int
	b []byte
}

type beJob struct {
	proc time.Duration
	done func()
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
		cache: make(map[string]respBody),
	}
	dc.load = stats.AR1{Phi: dc.opts.LoadPhi, Sigma: 0.3}
	tcpCfg := dc.opts.TCP
	if tcpCfg == (tcpsim.Config{}) {
		tcpCfg = tcpsim.Config{InitialCwnd: 10} // warm intra-cloud connections
	}
	dc.ep = tcpsim.NewEndpoint(n, host, tcpCfg)
	if dc.opts.Queue.Replicas > 0 {
		dc.cluster = newCluster(dc.ep.Sim(), dc.opts.Queue)
		dc.cluster.onChange = dc.refreshQueueGauges
	}
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

// currentLoad advances the AR(1) load process lazily to the present and
// returns its value, clamped to [-1, 1].
func (dc *DataCenter) currentLoad() float64 {
	now := dc.ep.Sim().Now()
	for dc.lastLoadAt+dc.opts.LoadTick <= now {
		dc.lastLoadAt += dc.opts.LoadTick
		dc.load.Next(dc.rng)
	}
	v := dc.load.Value()
	if v > 1 {
		v = 1
	}
	if v < -1 {
		v = -1
	}
	return v
}

// handle answers one forwarded search query after the modeled
// processing time.
func (dc *DataCenter) handle(w *httpsim.ResponseWriter, r *httpsim.Request) {
	q, err := workload.ParsePath(r.Path)
	if err != nil {
		w.WriteHeader(400, httpsim.ContentLengthHeader(0))
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

	proc := dc.cost.Sample(q, dc.currentLoad(), dc.rng)
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

func (dc *DataCenter) respondAfter(w *httpsim.ResponseWriter, body respBody, d time.Duration) {
	if dc.cluster != nil {
		ok := dc.cluster.Submit(d, func(wait time.Duration) {
			hdr := httpsim.ContentLengthHeader(body.n)
			if wait > 0 {
				// Report the queue share of the fetch so the FE (and the
				// critical-path attribution downstream) can split Tfetch
				// into queueing vs processing. Emitted only when nonzero:
				// an unloaded cluster's responses stay byte-identical to
				// the queue-less path.
				hdr[QueueWaitHeader] = strconv.FormatInt(int64(wait), 10)
			}
			w.WriteHeader(200, hdr)
			dc.write(w, body)
			w.End()
		})
		if !ok {
			dc.rejected++
			if m := dc.met; m != nil {
				m.rejections.Inc()
			}
			w.WriteHeader(503, httpsim.ContentLengthHeader(0))
			w.End()
		}
		return
	}
	dc.runJob(d, func() {
		w.WriteHeader(200, httpsim.ContentLengthHeader(body.n))
		dc.write(w, body)
		w.End()
	})
}

// refreshQueueGauges mirrors the cluster's state into the registry after
// every transition (no-op when unobserved).
func (dc *DataCenter) refreshQueueGauges() {
	m := dc.met
	if m == nil || dc.cluster == nil {
		return
	}
	m.queueDepth.Set(float64(dc.cluster.Waiting()))
	m.concurrency.Set(float64(dc.cluster.Busy()))
	m.utilization.Set(float64(dc.cluster.Busy()) / float64(dc.cluster.Replicas()))
}

// runJob occupies a worker for proc, then runs done. With a bounded
// pool, excess jobs wait FIFO for a free worker.
func (dc *DataCenter) runJob(proc time.Duration, done func()) {
	if dc.opts.Workers > 0 && dc.busy >= dc.opts.Workers {
		dc.queue = append(dc.queue, beJob{proc: proc, done: done})
		if len(dc.queue) > dc.maxQueue {
			dc.maxQueue = len(dc.queue)
		}
		if m := dc.met; m != nil {
			m.queueDepth.Set(float64(len(dc.queue)))
		}
		return
	}
	dc.startJob(proc, done)
}

func (dc *DataCenter) startJob(proc time.Duration, done func()) {
	dc.busy++
	if m := dc.met; m != nil {
		m.concurrency.Set(float64(dc.busy))
	}
	dc.ep.Sim().Schedule(proc, func() {
		done()
		dc.busy--
		if m := dc.met; m != nil {
			m.concurrency.Set(float64(dc.busy))
			m.queueDepth.Set(float64(len(dc.queue)))
		}
		if len(dc.queue) > 0 {
			next := dc.queue[0]
			dc.queue = dc.queue[1:]
			dc.startJob(next.proc, next.done)
		}
	})
}

// MaxQueueLen returns the deepest backlog observed (0 with an unbounded
// pool). With the replicated queue model enabled it reports the
// cluster's backlog instead of the legacy worker pool's.
func (dc *DataCenter) MaxQueueLen() int {
	if dc.cluster != nil {
		return dc.cluster.MaxQueueLen()
	}
	return dc.maxQueue
}

// Rejected returns the number of queries refused with a 503 at the
// cluster queue cap (0 without the queue model).
func (dc *DataCenter) Rejected() int { return dc.rejected }

// Cluster exposes the replicated queue model (nil unless
// Options.Queue.Replicas > 0) for scenario probes and tests.
func (dc *DataCenter) Cluster() *Cluster { return dc.cluster }

// BingCostModel is the calibrated Bing-like back-end: large, variable
// processing times (paper Figure 9 intercept ≈ 260 ms; Figures 7-8 show
// high variance).
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
// processing times, tuned so the Figure-9 regression intercept lands at
// the paper's ≈34 ms and the Tdelta threshold near its 50–100 ms band.
func GoogleCostModel() workload.CostModel {
	return workload.CostModel{
		Base:            32 * time.Millisecond,
		PerTerm:         2 * time.Millisecond,
		PopularDiscount: 0.7,
		CV:              0.12,
		LoadAmplitude:   0.08,
	}
}
