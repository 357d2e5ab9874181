// Package frontend models a front-end (FE) server — the paper's "proxy
// at the edge of the cloud". It plays exactly the two roles the paper
// identifies:
//
//  1. It caches the static portion of the search result page and flushes
//     it to the client immediately upon receiving a request, and
//  2. it splits the TCP connection: the client-facing connection
//     terminates here, while the query is forwarded to a back-end data
//     center over a persistent, pre-warmed connection, eliminating
//     slow-start ramp-up on the long FE↔BE leg.
//
// The server records the ground-truth FE↔BE fetch time of every query —
// the quantity the paper's end-host inference framework can only bound
// (T_delta ≤ T_fetch ≤ T_dynamic). Tests use it to validate those
// bounds against hidden truth.
package frontend

import (
	"math/rand"
	"strconv"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
)

// FEPort is the HTTP port front-end servers listen on (client-facing).
const FEPort = 80

// LoadModel describes FE request-processing delay. Akamai-like shared
// CDN nodes carry many tenants and show higher, more variable delays;
// dedicated Google-like FEs are faster and steadier (the paper's
// speculation for Bing's higher, noisier Tstatic).
type LoadModel struct {
	// Mean is the average per-request processing delay.
	Mean time.Duration
	// CV is the lognormal coefficient of variation per request.
	CV float64
	// Amplitude scales a slowly varying AR(1) load term, like the
	// back-end's.
	Amplitude float64
}

// Sample draws one request's processing delay given the current load
// value (clamped AR(1) output).
func (m LoadModel) Sample(load float64, rng *rand.Rand) time.Duration {
	mean := float64(m.Mean) * (1 + m.Amplitude*load)
	if mean < float64(100*time.Microsecond) {
		mean = float64(100 * time.Microsecond)
	}
	if m.CV <= 0 {
		return time.Duration(mean)
	}
	return time.Duration(stats.LogNormalFromMeanCV(mean, m.CV).Draw(rng))
}

// DedicatedLoadModel models a service-owned FE (Google-like).
func DedicatedLoadModel() LoadModel {
	return LoadModel{Mean: 12 * time.Millisecond, CV: 0.15, Amplitude: 0.05}
}

// SharedCDNLoadModel models a multi-tenant CDN FE (Akamai/Bing-like).
func SharedCDNLoadModel() LoadModel {
	return LoadModel{Mean: 35 * time.Millisecond, CV: 0.5, Amplitude: 0.4}
}

// PoolConfig bounds the FE→BE connection pool and adds admission
// control and retry behavior — the front half of the load-aware
// back-end subsystem (docs/QUEUEING.md). The zero value (MaxConns == 0)
// keeps the legacy unbounded pool: no admission, no retries, and wire
// behavior byte-identical to earlier versions.
type PoolConfig struct {
	// MaxConns bounds concurrent BE fetches. Excess fetches wait FIFO
	// for a free slot. 0 = unbounded (legacy).
	MaxConns int
	// QueueCap bounds the fetch wait queue: a request arriving with the
	// queue full is rejected outright with a 503 to the client (before
	// any static flush), giving rejected queries a distinguishable
	// client-side Record outcome. 0 = unbounded waiting.
	QueueCap int
	// Retries is how many times a fetch answered 503 by the BE cluster
	// is retried before the FE gives up and serves the static portion
	// only. The slot and connection are held across retries.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// attempt. Defaults to 20 ms when Retries > 0.
	Backoff time.Duration
}

// Server is one FE server instance.
type Server struct {
	host   simnet.HostID
	site   geo.Site
	ep     *tcpsim.Endpoint
	static []byte
	beHost simnet.HostID

	loadModel LoadModel
	load      stats.AR1
	loadTick  time.Duration
	lastLoad  time.Duration
	rng       *rand.Rand

	idle []*httpsim.PersistentConn

	// bounded BE pool state (Config.BEPool.MaxConns > 0)
	pool        PoolConfig
	beInflight  int
	poolWaiters []func()
	maxPoolWait int
	rejected    int
	beRetries   int
	be503s      int

	// SplitTCP can be disabled for the ablation baseline: the FE then
	// opens a fresh BE connection per query instead of reusing
	// persistent ones.
	splitTCP bool

	// worker-pool state (Config.Workers > 0)
	workers int
	busy    int
	queue   []feJob

	gzip bool
	// lenOnly: responses carry content-free bodies (Config.LengthOnly).
	lenOnly bool

	served      int
	fetchTimes  []time.Duration
	dialedConns int
	maxQueue    int

	// observability (StartObserving)
	met        *feMetrics
	logFetches bool
	// fetchLog holds FetchRecords for requests not yet pruned;
	// fetchBase is the absolute index of fetchLog[0], i.e. how many
	// records PruneFetchLog has dropped. In-flight completions address
	// their record by absolute index through logAt, so a late write to
	// a pruned entry is discarded instead of corrupting a neighbour.
	fetchLog  []FetchRecord
	fetchBase int
}

type feJob struct {
	service time.Duration
	run     func()
}

// Config assembles a Server.
type Config struct {
	Host   simnet.HostID
	Site   geo.Site
	BEHost simnet.HostID
	// Static is the cached static content prefix served to every
	// client immediately.
	Static []byte
	// Load is the FE processing-delay model.
	Load LoadModel
	// LoadTick is the AR(1) advance period (default 500 ms).
	LoadTick time.Duration
	// DisableSplitTCP makes the FE dial a fresh BE connection per
	// query (ablation A1's "no persistent connection" variant).
	DisableSplitTCP bool
	// Workers bounds concurrent request processing at the FE; excess
	// requests queue FIFO before their static flush, so a busy shared
	// CDN node inflates Tstatic mechanistically. 0 = unlimited
	// (load is modeled statistically via LoadModel only).
	Workers int
	// Gzip serves compressed responses: the cached static prefix and
	// the fetched dynamic portion are sent as two concatenated gzip
	// members (multi-member streams decompress transparently), so the
	// compressed static bytes stay identical across queries and the
	// cross-query content analysis keeps working on the wire bytes —
	// as it did for the paper against the real gzipped services.
	Gzip bool
	// LengthOnly makes the FE serve content-free bodies: the static
	// flush is len(Static) content-free bytes, BE responses are counted
	// rather than retained, and the dynamic portion is forwarded as its
	// length. Wire byte counts, timing and random draws are those of
	// the materialised FE. Pair it with a length-only back end; it has
	// no meaning under Gzip, whose sizes depend on content.
	LengthOnly bool
	// Seed drives the FE's local randomness.
	Seed int64
	// TCP overrides the endpoint TCP configuration (zero = defaults).
	TCP tcpsim.Config
	// BEPool bounds the FE→BE connection pool with admission control
	// and 503 retry/backoff (zero value = legacy unbounded pool).
	BEPool PoolConfig
}

// New attaches a front-end server to the network.
func New(n *simnet.Network, cfg Config) (*Server, error) {
	fe := &Server{
		host:      cfg.Host,
		site:      cfg.Site,
		static:    cfg.Static,
		beHost:    cfg.BEHost,
		loadModel: cfg.Load,
		loadTick:  cfg.LoadTick,
		rng:       stats.NewRand(cfg.Seed),
		splitTCP:  !cfg.DisableSplitTCP,
		workers:   cfg.Workers,
		gzip:      cfg.Gzip,
		lenOnly:   cfg.LengthOnly,
		pool:      cfg.BEPool,
	}
	if fe.pool.Retries > 0 && fe.pool.Backoff <= 0 {
		fe.pool.Backoff = 20 * time.Millisecond
	}
	if fe.gzip {
		fe.static = GzipMember(cfg.Static)
	}
	if fe.loadTick <= 0 {
		fe.loadTick = 500 * time.Millisecond
	}
	fe.load = stats.AR1{Phi: 0.9, Sigma: 0.3}
	fe.ep = tcpsim.NewEndpoint(n, cfg.Host, cfg.TCP)
	if _, err := httpsim.NewServer(fe.ep, FEPort, fe.handle); err != nil {
		return nil, err
	}
	return fe, nil
}

// Host returns the FE's network host ID.
func (fe *Server) Host() simnet.HostID { return fe.host }

// Site returns the FE's geographic site.
func (fe *Server) Site() geo.Site { return fe.site }

// Endpoint exposes the FE's TCP endpoint (for taps in tests).
func (fe *Server) Endpoint() *tcpsim.Endpoint { return fe.ep }

// Served returns the number of requests handled.
func (fe *Server) Served() int { return fe.served }

// FetchTimes returns the ground-truth FE↔BE fetch time of each served
// query, in arrival order: the time from receiving the client's GET to
// receiving the complete dynamic portion from the back-end. This is the
// directly-unobservable quantity the paper bounds from end-host
// measurements.
func (fe *Server) FetchTimes() []time.Duration {
	out := make([]time.Duration, len(fe.fetchTimes))
	copy(out, fe.fetchTimes)
	return out
}

// DialedBEConns counts distinct BE connections opened (1 per query flow
// when split TCP is disabled; far fewer with the persistent pool).
func (fe *Server) DialedBEConns() int { return fe.dialedConns }

func (fe *Server) currentLoad() float64 {
	now := fe.ep.Sim().Now()
	for fe.lastLoad+fe.loadTick <= now {
		fe.lastLoad += fe.loadTick
		fe.load.Next(fe.rng)
	}
	v := fe.load.Value()
	if v > 1 {
		v = 1
	}
	if v < -1 {
		v = -1
	}
	return v
}

// getConn returns a back-end connection: a pooled persistent one under
// split TCP, or a fresh dial otherwise.
func (fe *Server) getConn() *httpsim.PersistentConn {
	if fe.splitTCP {
		for len(fe.idle) > 0 {
			pc := fe.idle[len(fe.idle)-1]
			fe.idle = fe.idle[:len(fe.idle)-1]
			return pc
		}
	}
	fe.dialedConns++
	if m := fe.met; m != nil {
		m.beDials.Inc()
	}
	return httpsim.NewPersistentConn(fe.ep, fe.beHost, backend.BEPort)
}

func (fe *Server) putConn(pc *httpsim.PersistentConn) {
	if fe.splitTCP {
		fe.idle = append(fe.idle, pc)
	} else {
		pc.Close()
	}
}

// SetBEHost redirects future BE fetches to a different data center —
// the failover primitive (an FE fleet falling back to a distant BE when
// its primary cluster degrades). Idle pooled connections to the old BE
// are closed; in-flight fetches complete against the old one.
func (fe *Server) SetBEHost(host simnet.HostID) {
	if host == fe.beHost {
		return
	}
	fe.beHost = host
	for _, pc := range fe.idle {
		pc.Close()
	}
	fe.idle = fe.idle[:0]
}

// BEHost returns the data center currently targeted by new fetches.
func (fe *Server) BEHost() simnet.HostID { return fe.beHost }

// withConn runs use with a BE connection, respecting the bounded pool:
// with a full pool the fetch waits FIFO for a slot (admission against
// PoolConfig.QueueCap happened at request arrival). Unbounded pools run
// immediately — the legacy path, untouched.
func (fe *Server) withConn(use func(pc *httpsim.PersistentConn)) {
	if fe.pool.MaxConns <= 0 {
		use(fe.getConn())
		return
	}
	if fe.beInflight < fe.pool.MaxConns {
		fe.beInflight++
		fe.refreshPoolGauges()
		use(fe.getConn())
		return
	}
	fe.poolWaiters = append(fe.poolWaiters, func() { use(fe.getConn()) })
	if len(fe.poolWaiters) > fe.maxPoolWait {
		fe.maxPoolWait = len(fe.poolWaiters)
	}
	fe.refreshPoolGauges()
}

// releaseSlot frees a pool slot when a fetch finishes; a FIFO waiter, if
// any, inherits the slot immediately.
func (fe *Server) releaseSlot() {
	if fe.pool.MaxConns <= 0 {
		return
	}
	if len(fe.poolWaiters) > 0 {
		next := fe.poolWaiters[0]
		fe.poolWaiters = fe.poolWaiters[1:]
		fe.refreshPoolGauges()
		next()
		return
	}
	fe.beInflight--
	fe.refreshPoolGauges()
}

func (fe *Server) refreshPoolGauges() {
	if m := fe.met; m != nil {
		m.poolInUse.Set(float64(fe.beInflight))
		m.poolWait.Set(float64(len(fe.poolWaiters)))
	}
}

// Prewarm opens n persistent BE connections ahead of traffic, as real
// proxies do. No-op when split TCP is disabled.
func (fe *Server) Prewarm(n int) {
	if !fe.splitTCP {
		return
	}
	for i := 0; i < n; i++ {
		fe.dialedConns++
		fe.idle = append(fe.idle, httpsim.NewPersistentConn(fe.ep, fe.beHost, backend.BEPort))
	}
}

// runJob occupies an FE worker for the service time, then runs done.
// Unbounded pools run immediately.
func (fe *Server) runJob(service time.Duration, done func()) {
	if fe.workers > 0 && fe.busy >= fe.workers {
		fe.queue = append(fe.queue, feJob{service: service, run: done})
		if len(fe.queue) > fe.maxQueue {
			fe.maxQueue = len(fe.queue)
		}
		if m := fe.met; m != nil {
			m.queueDepth.Set(float64(len(fe.queue)))
		}
		return
	}
	fe.startJob(service, done)
}

func (fe *Server) startJob(service time.Duration, done func()) {
	fe.busy++
	if m := fe.met; m != nil {
		m.concurrency.Set(float64(fe.busy))
	}
	fe.ep.Sim().Schedule(service, func() {
		done()
		fe.busy--
		if m := fe.met; m != nil {
			m.concurrency.Set(float64(fe.busy))
			m.queueDepth.Set(float64(len(fe.queue)))
		}
		if len(fe.queue) > 0 {
			next := fe.queue[0]
			fe.queue = fe.queue[1:]
			fe.startJob(next.service, next.run)
		}
	})
}

// MaxQueueLen returns the deepest request backlog observed.
func (fe *Server) MaxQueueLen() int { return fe.maxQueue }

// Rejected counts client requests refused with a 503 at the BE-pool
// admission check.
func (fe *Server) Rejected() int { return fe.rejected }

// BERetries counts fetch retries issued after a BE 503.
func (fe *Server) BERetries() int { return fe.beRetries }

// BERejectedFetches counts fetches that exhausted their retries against
// a rejecting BE cluster and degraded to a static-only response.
func (fe *Server) BERejectedFetches() int { return fe.be503s }

// MaxPoolWaiters returns the deepest BE-fetch wait queue observed.
func (fe *Server) MaxPoolWaiters() int { return fe.maxPoolWait }

// PoolInflight returns the number of BE-fetch slots currently in use.
func (fe *Server) PoolInflight() int { return fe.beInflight }

// handle serves one client search request: flush the cached static
// prefix after the FE processing delay, and in parallel fetch the
// dynamic portion from the back-end over a (persistent) split
// connection.
//
// Clients sending "Connection: keep-alive" get a chunked response and
// the connection stays open for further queries (browser behavior); the
// default is the paper's one-query-per-connection close framing.
func (fe *Server) handle(w *httpsim.ResponseWriter, r *httpsim.Request) {
	fe.served++
	sim := fe.ep.Sim()
	arrived := sim.Now()
	keepAlive := r.Header["Connection"] == "keep-alive"

	if m := fe.met; m != nil {
		m.requests.Inc()
	}

	// Admission control: with a bounded BE pool whose wait queue is at
	// its cap, refuse the request outright — a 503 before any static
	// flush, so a rejected query carries a distinguishable client-side
	// outcome (Record.Status == 503, no payload).
	if fe.pool.MaxConns > 0 && fe.pool.QueueCap > 0 &&
		fe.beInflight >= fe.pool.MaxConns && len(fe.poolWaiters) >= fe.pool.QueueCap {
		fe.rejected++
		if m := fe.met; m != nil {
			m.rejections.Inc()
		}
		w.WriteHeader(503, httpsim.ContentLengthHeader(0))
		w.End()
		return
	}

	logIdx := -1
	if fe.logFetches {
		logIdx = fe.fetchBase + len(fe.fetchLog)
		rec := FetchRecord{Arrived: arrived}
		if c := w.Conn(); c != nil {
			rec.Client = string(c.RemoteHost())
			rec.ClientPort = c.RemotePort()
		}
		fe.fetchLog = append(fe.fetchLog, rec)
	}

	// The dynamic portion, once the BE fetch has resolved (fetched):
	// its bytes, or only its length at a length-only FE. Both stay zero
	// when the fetch failed or degraded to static-only.
	staticWritten, fetched := false, false
	var dynamic []byte
	dynamicLen := 0
	done := false

	finish := func() {
		if done {
			return
		}
		done = true
		fe.write(w, dynamic, dynamicLen)
		w.End()
	}

	// Role 1: cached static portion, delivered after FE processing.
	// With a bounded worker pool, the request waits for a free worker
	// first — queueing under overload inflates Tstatic.
	feDelay := fe.loadModel.Sample(fe.currentLoad(), fe.rng)
	fe.runJob(feDelay, func() {
		if keepAlive {
			w.WriteHeader(200, httpsim.ChunkedHeader())
		} else {
			w.WriteHeader(200, httpsim.Header{}) // close-framed
		}
		fe.write(w, fe.static, len(fe.static))
		staticWritten = true
		if m := fe.met; m != nil {
			m.staticFlushes.Inc()
		}
		if r := fe.logAt(logIdx); r != nil {
			r.StaticAt = sim.Now()
		}
		if fetched {
			finish()
		}
	})

	// Role 2: split-TCP fetch of the dynamic portion, forwarded
	// immediately (not waiting for the FE delay — proxies pipeline).
	// With a bounded pool the fetch may first wait for a slot; a BE 503
	// (cluster queue cap) is retried with exponential backoff, holding
	// the slot and connection, before degrading to static-only.
	fe.withConn(func(pc *httpsim.PersistentConn) {
		attempt := 0
		var issue func()
		issue = func() {
			pc.Do(&httpsim.Request{Method: "GET", Path: r.Path, Host: r.Host}, httpsim.ResponseCallbacks{
				CountOnly: fe.lenOnly,
				OnDone: func(resp *httpsim.Response) {
					if resp.Status == 503 {
						if attempt < fe.pool.Retries {
							attempt++
							fe.beRetries++
							if m := fe.met; m != nil {
								m.retries.Inc()
							}
							backoff := fe.pool.Backoff << uint(min(attempt-1, 16))
							sim.Schedule(backoff, issue)
							return
						}
						// Retries exhausted: degrade to static-only.
						fe.be503s++
						fe.putConn(pc)
						fe.releaseSlot()
						fetched = true
						if staticWritten {
							finish()
						}
						return
					}
					fe.fetchTimes = append(fe.fetchTimes, sim.Now()-arrived)
					if m := fe.met; m != nil {
						m.fetchQuantiles.Observe((sim.Now() - arrived).Seconds())
					}
					if rec := fe.logAt(logIdx); rec != nil {
						rec.FetchDone = sim.Now()
						if v := resp.Header[backend.QueueWaitHeader]; v != "" {
							if ns, err := strconv.ParseInt(v, 10, 64); err == nil && ns > 0 {
								rec.QueueWait = time.Duration(ns)
							}
						}
					}
					fe.putConn(pc)
					fe.releaseSlot()
					fetched = true
					dynamic, dynamicLen = resp.Body, resp.BodyLen
					if fe.gzip {
						dynamic = GzipMember(resp.Body)
					}
					if staticWritten {
						finish()
					}
				},
				OnError: func(error) {
					// BE unreachable: end the response after the static part.
					fe.releaseSlot()
					fetched = true
					if staticWritten {
						finish()
					}
				},
			})
		}
		issue()
	})
}

// write sends body bytes b, or only their count n at a length-only FE.
func (fe *Server) write(w *httpsim.ResponseWriter, b []byte, n int) {
	if fe.lenOnly {
		w.WriteBlank(n)
	} else {
		w.Write(b)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
