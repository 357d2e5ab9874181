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
// The server hands the ground truth of every request it serves, its
// FE↔BE fetch time included, to Server.OnFetch — the quantity the
// paper's end-host inference framework can only bound (T_delta ≤
// T_fetch ≤ T_dynamic). Tests use it to validate those bounds against
// hidden truth.
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
// back-end subsystem (docs/OPERATING.md §3). The zero value (MaxConns == 0)
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
	load      backend.Load
	rng       *rand.Rand
	// queue serves each request's processing delay before its static
	// flush (Config.Workers replicas; 0 = unbounded).
	queue *backend.Cluster

	idle []*httpsim.PersistentConn
	// requests are free per-request states, reused by the next request.
	requests []*request

	// bounded BE pool state (Config.BEPool.MaxConns > 0)
	pool        PoolConfig
	beInflight  int
	poolWaiters []*request
	maxPoolWait int
	rejected    int
	beRetries   int
	be503s      int

	// SplitTCP can be disabled for the ablation baseline: the FE then
	// opens a fresh BE connection per query instead of reusing
	// persistent ones.
	splitTCP bool

	gzip bool
	// lenOnly: responses carry content-free bodies (Config.LengthOnly).
	lenOnly bool

	served      int
	dialedConns int

	// observability (StartObserving)
	met *feMetrics

	// OnFetch, when set, receives the ground truth of every handled
	// request (a 503 at admission excepted), observed or not, as its
	// response ends: before the response's last byte is written, so
	// before the client can see it complete.
	OnFetch func(FetchRecord)
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
	// DisableSplitTCP makes the FE dial a fresh BE connection per
	// query (ablation A1's "no persistent connection" variant).
	DisableSplitTCP bool
	// Workers is the number of FE queue replicas (round-robin
	// dispatch); a request waiting for its replica delays its static
	// flush, so a busy shared CDN node inflates Tstatic
	// mechanistically. 0 = unlimited (load is modeled statistically
	// via LoadModel only).
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
		load:      backend.NewLoad(),
		rng:       stats.NewRand(cfg.Seed),
		splitTCP:  !cfg.DisableSplitTCP,
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
	// Nothing keeps an FE connection object past its close unchecked
	// (a ResponseWriter checks its connection's incarnation, a closed
	// PersistentConn no longer touches its connection), so the FE
	// recycles them, as client endpoints do.
	tcpCfg := cfg.TCP
	tcpCfg.RecycleConns = true
	fe.ep = tcpsim.NewEndpoint(n, cfg.Host, tcpCfg)
	fe.queue = backend.NewCluster(fe.ep.Sim(), backend.QueueOptions{Replicas: cfg.Workers},
		fe.refreshQueueGauges)
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

// DialedBEConns counts distinct BE connections opened (1 per query flow
// when split TCP is disabled; far fewer with the persistent pool).
func (fe *Server) DialedBEConns() int { return fe.dialedConns }

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
// are closed; in-flight fetches complete against the old one, and their
// connections go back to the pool, so later fetches may still ride them
// there (FetchRecord.BE names the BE each fetch went to).
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

// withConn gives q a BE connection and issues its fetch, respecting the
// bounded pool: with a full pool the fetch waits FIFO for a slot
// (admission against PoolConfig.QueueCap happened at request arrival).
// Unbounded pools run immediately — the legacy path, untouched.
func (fe *Server) withConn(q *request) {
	if fe.pool.MaxConns <= 0 {
		q.fetch(fe.getConn())
		return
	}
	if fe.beInflight < fe.pool.MaxConns {
		fe.beInflight++
		fe.refreshPoolGauges()
		q.fetch(fe.getConn())
		return
	}
	fe.poolWaiters = append(fe.poolWaiters, q)
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
		fe.poolWaiters[0] = nil
		fe.poolWaiters = fe.poolWaiters[1:]
		fe.refreshPoolGauges()
		next.fetch(fe.getConn())
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
		w.WriteHeaderLength(503, 0, nil)
		w.End()
		return
	}

	q := fe.newRequest()
	q.w, q.keepAlive = w, keepAlive
	q.rec.Arrived = arrived
	if c := w.Conn(); c != nil {
		q.rec.Client = string(c.RemoteHost())
		q.rec.ClientPort = c.RemotePort()
	}
	q.req.Path, q.req.Host = r.Path, r.Host

	// Role 1: cached static portion, delivered after FE processing.
	// With bounded replicas, the request may wait for its replica
	// first — queueing under overload inflates Tstatic.
	feDelay := fe.loadModel.Sample(fe.load.At(sim.Now(), fe.rng), fe.rng)
	fe.queue.Submit(feDelay, q.flushFn)

	// Role 2: split-TCP fetch of the dynamic portion, forwarded
	// immediately (not waiting for the FE delay — proxies pipeline).
	// With a bounded pool the fetch may first wait for a slot; a BE 503
	// (cluster queue cap) is retried with exponential backoff, holding
	// the slot and connection, before degrading to static-only.
	fe.withConn(q)
}

// request is one client request in flight at the FE: what its static
// flush and its BE fetch share. Its callbacks are bound once, and it
// goes back to the server's free list when its response ends, so a
// served query allocates none of it.
type request struct {
	fe      *Server
	w       *httpsim.ResponseWriter
	pc      *httpsim.PersistentConn
	req     httpsim.Request // the fetch forwarded to the BE
	cb      httpsim.ResponseCallbacks
	rec     FetchRecord // the request's ground truth, for OnFetch
	attempt int         // BE 503 retries so far
	// The dynamic portion, once the BE fetch has resolved (fetched):
	// its bytes, or only its length at a length-only FE. Both stay zero
	// when the fetch failed or degraded to static-only.
	dynamic       []byte
	dynamicLen    int
	keepAlive     bool
	staticWritten bool
	fetched       bool

	flushFn func(time.Duration)
	issueFn func()
}

func (fe *Server) newRequest() *request {
	if n := len(fe.requests); n > 0 {
		q := fe.requests[n-1]
		fe.requests = fe.requests[:n-1]
		return q
	}
	q := &request{fe: fe, req: httpsim.Request{Method: "GET"}}
	q.flushFn, q.issueFn = q.flush, q.issue
	q.cb = httpsim.ResponseCallbacks{CountOnly: fe.lenOnly, OnDone: q.fetchDone, OnError: q.fetchFailed}
	return q
}

// flush writes the static portion once the FE's processing is done.
func (q *request) flush(time.Duration) {
	fe, w := q.fe, q.w
	if q.keepAlive {
		w.WriteHeader(200, httpsim.ChunkedHeader())
	} else {
		w.WriteHeader(200, nil) // close-framed
	}
	fe.write(w, fe.static, len(fe.static))
	q.staticWritten = true
	if m := fe.met; m != nil {
		m.staticFlushes.Inc()
	}
	q.rec.StaticAt = fe.ep.Sim().Now()
	if q.fetched {
		q.finish()
	}
}

// fetch issues the BE fetch over pc.
func (q *request) fetch(pc *httpsim.PersistentConn) {
	q.pc = pc
	q.rec.BE = pc.Host()
	q.issue()
}

func (q *request) issue() { q.pc.Do(&q.req, q.cb) }

// fetchDone takes the BE's answer: a 503 is retried or degrades the
// response to static-only, anything else is the dynamic portion.
func (q *request) fetchDone(resp *httpsim.Response) {
	fe := q.fe
	sim := fe.ep.Sim()
	if resp.Status == 503 {
		if q.attempt < fe.pool.Retries {
			q.attempt++
			fe.beRetries++
			if m := fe.met; m != nil {
				m.retries.Inc()
			}
			backoff := fe.pool.Backoff << uint(min(q.attempt-1, 16))
			sim.Schedule(backoff, q.issueFn)
			return
		}
		// Retries exhausted: degrade to static-only.
		fe.be503s++
		fe.putConn(q.pc)
		fe.releaseSlot()
		q.resolved()
		return
	}
	if m := fe.met; m != nil {
		m.fetchQuantiles.Observe((sim.Now() - q.rec.Arrived).Seconds())
	}
	q.rec.FetchDone = sim.Now()
	if v := resp.Header[backend.QueueWaitHeader]; v != "" {
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil && ns > 0 {
			q.rec.QueueWait = time.Duration(ns)
		}
	}
	q.dynamic, q.dynamicLen = resp.Body, resp.BodyLen
	if fe.gzip {
		q.dynamic = GzipMember(resp.Body)
	}
	fe.putConn(q.pc)
	fe.releaseSlot()
	q.resolved()
}

// fetchFailed: the BE is unreachable, so the response ends after the
// static part.
func (q *request) fetchFailed(error) {
	q.fe.releaseSlot()
	q.resolved()
}

// resolved marks the fetch done and ends the response if the static
// part is out.
func (q *request) resolved() {
	q.fetched = true
	if q.staticWritten {
		q.finish()
	}
}

// finish hands q's ground truth to OnFetch, sends the dynamic portion,
// ends the response and frees q: the static flush and the fetch have
// both run, so nothing refers to it.
func (q *request) finish() {
	fe, w := q.fe, q.w
	if fe.OnFetch != nil {
		fe.OnFetch(q.rec)
	}
	fe.write(w, q.dynamic, q.dynamicLen)
	w.End()
	*q = request{fe: fe, req: httpsim.Request{Method: "GET"}, cb: q.cb, flushFn: q.flushFn, issueFn: q.issueFn}
	fe.requests = append(fe.requests, q)
}

// write sends body bytes b, or only their count n at a length-only FE.
func (fe *Server) write(w *httpsim.ResponseWriter, b []byte, n int) {
	if fe.lenOnly {
		w.WriteBlank(n)
	} else {
		w.Write(b)
	}
}
