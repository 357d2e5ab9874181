// Package emulator is the measurement harness: the stand-in for the
// paper's "in-house user search query emulator" deployed on PlanetLab.
// It drives a vantage fleet against a deployment, captures client-side
// packet traces (tcpdump style), and assembles datasets:
//
//   - Experiment A ("datasets A"): every node queries its default
//     (DNS-nearest) FE server periodically.
//   - Experiment B ("datasets B"): every node repeatedly queries one
//     fixed FE server.
//   - CachingProbe: the Section-3 methodology for detecting FE result
//     caching — same-query vs distinct-query Tdynamic distributions.
package emulator

import (
	"fmt"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// Record is one completed (or failed) search query issued by a node.
type Record struct {
	Node     simnet.HostID
	FE       simnet.HostID
	Query    workload.Query
	IssuedAt time.Duration
	DoneAt   time.Duration
	// DNSTime is the resolution cost paid before the TCP connection
	// opened (zero on client-cache hits, or when no resolver is
	// configured).
	DNSTime time.Duration
	Status  int
	BodyLen int
	Failed  bool
	// Key locates the session's packet events inside the node's trace.
	Key capture.ConnKey
	// Events is the session's client-side packet event list, attached
	// by Finalize.
	Events []capture.Event
	// TrueFetch is the FE-side ground-truth fetch time of this query
	// (GET arrival at the FE to the complete dynamic portion from the
	// BE), joined from the FE's fetch log by client host and port. Zero
	// unless the runner's observer carries a tail sampler (which turns
	// the FE log on), and zero when the BE fetch failed.
	TrueFetch time.Duration
	// Fetch is the joined FE log entry itself — the instants a span tree
	// draws the FE-side phases from (zero value when nothing joined).
	Fetch frontend.FetchRecord
	// BE and BERTT are the FE's assigned back-end and the base FE↔BE
	// round-trip propagation delay, which critical-path attribution
	// (internal/obs/critpath) splits the fetch window by. Set with Fetch.
	BE    simnet.HostID
	BERTT time.Duration
}

// OverallDelay is the user-perceived response time: first SYN to last
// payload byte (paper Figure 8's quantity).
func (r Record) OverallDelay() time.Duration { return r.DoneAt - r.IssuedAt }

// RecordSink consumes finalized records one at a time. The sharded
// campaigns (RunShardedA, RunFleet) fold each record into the caller's
// mergeable accumulators (parameter extraction, quantile sketches, tail
// sampling) and then drop it, so a campaign's memory stays bounded by
// one batch world instead of growing with the full record count.
//
// Consume is called in record order (batch order, then per-batch
// simulation order), from the batch's worker goroutine. The record —
// its Events included — must not be retained beyond the call; copy what
// you keep.
type RecordSink interface {
	Consume(rec *Record)
}

// Dataset is the output of one experiment.
type Dataset struct {
	Service    string
	Experiment string
	Records    []Record
	// Traces holds each node's full packet trace.
	Traces map[simnet.HostID]*capture.Trace
	// FEFetchTimes is the per-FE ground-truth fetch-time series —
	// unobservable in the real study, recorded here to validate the
	// inference framework.
	FEFetchTimes map[simnet.HostID][]time.Duration
}

// world is the plumbing every simulated world shares, whatever its
// client population: simulator, network and deployment, the optional
// observability wiring (simulator counters, one TCP stack bundle for
// every endpoint, per-FE/BE labeled metrics), the optional wall-clock
// telemetry hub, and each FE's back-end link for the ground-truth join.
// Runner and FleetRunner embed it.
type world struct {
	Sim *simnet.Sim
	Net *simnet.Network
	Dep *cdn.Deployment

	// snap: captures keep packet sizes, not bytes (Options.SnapPayloads).
	snap       bool
	obsv       *obs.Observer
	simMetrics *simnet.Metrics
	stack      *tcpsim.StackMetrics
	rt         *rt.Engine
	links      map[simnet.HostID]beLink
}

// newWorld builds the simulator, network and deployment, and wires them
// to the observer and the telemetry hub (either may be nil). A world
// whose captures are snapped reads no response content, so it is built
// length-only: no layer materialises bytes the tap would drop. A Gzip
// deployment is the exception — its wire sizes depend on content.
func newWorld(simSeed int64, depCfg cdn.Config, snap bool, o *obs.Observer, rtm *rt.Engine) (*world, error) {
	sim := simnet.New(simSeed)
	net := simnet.NewNetwork(sim)
	depCfg.LengthOnly = snap && !depCfg.Gzip
	dep, err := cdn.Build(net, depCfg)
	if err != nil {
		return nil, err
	}
	w := &world{Sim: sim, Net: net, Dep: dep, snap: snap, obsv: o, rt: rtm,
		links: make(map[simnet.HostID]beLink, len(dep.FEs))}
	if rtm != nil {
		sim.SetRuntime(rtm)
		net.SetRuntime(rtm)
	}
	if o != nil {
		reg := o.Registry()
		w.simMetrics = simnet.NewMetrics(reg)
		sim.SetMetrics(w.simMetrics)
		w.stack = tcpsim.NewStackMetrics(reg)
		for _, fe := range dep.FEs {
			fe.Endpoint().Metrics = w.stack
			fe.StartObserving(o)
		}
		for _, dc := range dep.BEs {
			dc.Endpoint().Metrics = w.stack
			dc.StartObserving(o)
		}
	}
	for _, fe := range dep.FEs {
		if be := dep.BEOf(fe); be != nil {
			w.links[fe.Host()] = beLink{be: be.Host(), rtt: net.RTT(fe.Host(), be.Host())}
		}
	}
	return w, nil
}

// newClient attaches one client host to the world: a TCP endpoint
// reporting to the world's stack bundle, with a packet recorder on its
// tap (a snapped world's recorder drops whatever payload bytes reach it).
func (w *world) newClient(host simnet.HostID, cfg tcpsim.Config) (*tcpsim.Endpoint, *capture.Recorder) {
	ep := tcpsim.NewEndpoint(w.Net, host, cfg)
	ep.Metrics = w.stack
	rec := capture.NewRecorder(string(host))
	rec.SnapPayload = w.snap
	ep.Tap = rec.Tap
	return ep, rec
}

// newRecord is a query's record at issue time; Failed clears when the
// response completes.
func (w *world) newRecord(node, fe simnet.HostID, q workload.Query, dnsTime time.Duration) Record {
	return Record{Node: node, FE: fe, Query: q, IssuedAt: w.Sim.Now(), DNSTime: dnsTime, Failed: true}
}

// complete fills the response side of a record.
func (w *world) complete(rr *Record, resp *httpsim.Response) {
	rr.Failed = false
	rr.DoneAt = w.Sim.Now()
	rr.Status = resp.Status
	rr.BodyLen = resp.BodyLen
}

// join stamps the FE's ground truth on a record: the matched log entry
// fr (the zero value when none matched), the fetch time it implies, and
// the FE's back-end link. A degraded query's BE fetch never completes
// (FetchDone stays zero), so it has no fetch time.
func (w *world) join(rr *Record, fr frontend.FetchRecord) {
	rr.Fetch = fr
	if fr.FetchDone > 0 {
		rr.TrueFetch = fr.FetchDone - fr.Arrived
	}
	link := w.links[rr.FE]
	rr.BE, rr.BERTT = link.be, link.rtt
}

// get sends the record's query to its FE on a fresh connection from ep
// and stamps the connection's key on the record; onDone runs when the
// response completes. The response is counted, never retained: the
// capture is the record of content.
func (w *world) get(ep *tcpsim.Endpoint, rr *Record, onDone func(*httpsim.Response)) {
	conn := httpsim.Get(ep, rr.FE, frontend.FEPort, httpsim.NewGet(w.Dep.Name, rr.Query.Path()),
		httpsim.ResponseCallbacks{CountOnly: true, OnDone: onDone})
	rr.Key = capture.ConnKey{Remote: string(rr.FE), LocalPort: conn.LocalPort(), RemotePort: frontend.FEPort}
}

// stagger is node i's campaign start offset, so the fleet doesn't fire
// in lockstep (PlanetLab nodes were never synchronized).
func stagger(i int) time.Duration { return time.Duration(i%97) * 103 * time.Millisecond }

// Runner owns one simulated world with a materialised vantage fleet: a
// client TCP endpoint + packet recorder per node.
type Runner struct {
	*world
	Fleet *vantage.Fleet

	eps  map[simnet.HostID]*tcpsim.Endpoint
	recs map[simnet.HostID]*capture.Recorder
}

// Options configures a Runner.
type Options struct {
	// Nodes is the vantage fleet size (default 250).
	Nodes int
	// FleetSeed places the fleet; keep it equal across services so
	// per-node comparisons (Figure 8) line up.
	FleetSeed int64
	// Access selects the fleet's last-mile profile (default campus).
	Access vantage.AccessProfile
	// ClientTCP overrides the client endpoints' TCP configuration.
	ClientTCP tcpsim.Config
	// SnapPayloads is the capture's snaplen: records keep every packet's
	// timing, sequence range and size but no payload bytes, so timeline
	// analysis works and content analysis does not. Since nothing in
	// such a world reads response content, none is built: back ends
	// compute body lengths, front ends and TCP carry content-free byte
	// ranges, and wire byte counts, timing and random draws are exactly
	// those of the full-payload world (HTTP headers stay real). A Gzip
	// deployment still materialises — compressed sizes depend on
	// content — and only drops the bytes at the tap. Derive the content
	// boundary from a small unsnapped probe run.
	SnapPayloads bool
	// Obs, when non-nil, wires the whole world into an observability
	// layer: simulator and network counters, a fleet-wide TCP stack
	// bundle, per-FE/BE labeled metrics, and (when Obs carries a tail
	// sampler) the FE fetch log, joined onto every completed record at
	// finalize time. Nil costs nothing on the hot paths.
	Obs *obs.Observer
	// Runtime, when non-nil, publishes engine liveness (events/sec,
	// sim-time ratio, fast-path activity, heap watermark) to the
	// wall-clock telemetry hub. Unlike Obs it is shared across
	// concurrent worlds and never touches the deterministic exports.
	Runtime *rt.Engine
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 250
	}
	if o.Access == (vantage.AccessProfile{}) {
		o.Access = vantage.CampusProfile()
	}
	return o
}

// New builds a Runner: simulator, network, deployment and fleet.
func New(simSeed int64, depCfg cdn.Config, opts Options) (*Runner, error) {
	opts = opts.withDefaults()
	w, err := newWorld(simSeed, depCfg, opts.SnapPayloads, opts.Obs, opts.Runtime)
	if err != nil {
		return nil, err
	}
	fleet := vantage.NewFleet(opts.Nodes, geo.WorldMetros(), opts.Access, opts.FleetSeed)
	fleet.Wire(w.Dep)
	r := &Runner{
		world: w,
		Fleet: fleet,
		eps:   make(map[simnet.HostID]*tcpsim.Endpoint),
		recs:  make(map[simnet.HostID]*capture.Recorder),
	}
	for _, n := range fleet.Nodes {
		r.eps[n.Host], r.recs[n.Host] = w.newClient(n.Host, opts.ClientTCP)
	}
	return r, nil
}

// NearestNode returns the fleet node with the smallest RTT to the given
// FE — the right vantage for content-boundary probes, whose static
// portion must drain before the dynamic portion arrives.
func (r *Runner) NearestNode(fe *frontend.Server) vantage.Node {
	best := r.Fleet.Nodes[0]
	for _, n := range r.Fleet.Nodes[1:] {
		if r.Net.RTT(n.Host, fe.Host()) < r.Net.RTT(best.Host, fe.Host()) {
			best = n
		}
	}
	return best
}

// newDataset allocates a dataset shell for this runner.
func (r *Runner) newDataset(experiment string) *Dataset {
	return &Dataset{
		Service:      r.Dep.Name,
		Experiment:   experiment,
		Traces:       make(map[simnet.HostID]*capture.Trace),
		FEFetchTimes: make(map[simnet.HostID][]time.Duration),
	}
}

// issueAt schedules one query from node to fe at virtual time at,
// appending a Record to ds when the response completes.
func (r *Runner) issueAt(ds *Dataset, at time.Duration, node vantage.Node,
	fe *frontend.Server, q workload.Query) {
	r.issueAtDNS(ds, at, node, fe, q, 0)
}

// issueAtDNS is issueAt with a DNS resolution cost recorded on the
// record (the query was delayed by dnsTime before `at`).
func (r *Runner) issueAtDNS(ds *Dataset, at time.Duration, node vantage.Node,
	fe *frontend.Server, q workload.Query, dnsTime time.Duration) {
	r.Sim.ScheduleAt(at, func() {
		idx := len(ds.Records)
		ds.Records = append(ds.Records, r.newRecord(node.Host, fe.Host(), q, dnsTime))
		r.get(r.eps[node.Host], &ds.Records[idx], func(resp *httpsim.Response) {
			r.complete(&ds.Records[idx], resp)
		})
	})
}

// finalize runs the simulator to completion and attaches traces, session
// events and FE ground truth to the dataset.
func (r *Runner) finalize(ds *Dataset) *Dataset {
	r.Sim.Run()
	for host, rec := range r.recs {
		ds.Traces[host] = rec.Trace()
	}
	// Split each node's trace into sessions once; records then attach
	// by connection key.
	sessionsByNode := make(map[simnet.HostID]map[capture.ConnKey][]capture.Event, len(ds.Traces))
	for i := range ds.Records {
		rr := &ds.Records[i]
		sessions, ok := sessionsByNode[rr.Node]
		if !ok {
			tr, have := ds.Traces[rr.Node]
			if !have {
				continue
			}
			_, sessions = tr.Sessions()
			sessionsByNode[rr.Node] = sessions
		}
		rr.Events = sessions[rr.Key]
	}
	for _, fe := range r.Dep.FEs {
		ds.FEFetchTimes[fe.Host()] = fe.FetchTimes()
	}
	r.observe(ds)
	// One heap reading per completed world: with many batch worlds in
	// flight this is what traces the campaign's memory watermark.
	r.rt.SampleMem()
	return ds
}

// feLogKey joins an FE-side fetch record with a client-side session: the
// FE saw the client's host and TCP source port, which the client's
// record knows as (Node, Key.LocalPort). Ephemeral ports DO recycle on
// long runs (a 16-bit space against paper-scale 720-repeat campaigns),
// so a key maps to all fetch records that ever used the port; the join
// then disambiguates by handshake time — the record whose GET arrived
// inside the query's [IssuedAt, DoneAt] window is the right one.
type feLogKey struct {
	client string
	port   uint16
}

// matchFetch selects the fetch record belonging to the query window.
// FE arrival always falls inside it: the GET leaves at IssuedAt and the
// response returns by DoneAt. At most one candidate can match, because
// a port cannot host two interleaved sessions.
func matchFetch(cands []frontend.FetchRecord, issued, done time.Duration) (frontend.FetchRecord, bool) {
	for _, fr := range cands {
		if fr.Arrived >= issued && fr.Arrived <= done {
			return fr, true
		}
	}
	return frontend.FetchRecord{}, false
}

// observe flushes the registry snapshots and, when the FE fetch log is
// on (the observer carries a tail sampler), joins every completed
// record with the FE's ground truth. Parsing and measuring the records
// is internal/analysis's job.
func (r *Runner) observe(ds *Dataset) {
	o := r.obsv
	if o == nil {
		return
	}
	r.simMetrics.Flush()
	r.Net.ExportMetrics(o.Registry())
	if o.TailSampler() == nil {
		return
	}
	logs := make(map[simnet.HostID]map[feLogKey][]frontend.FetchRecord, len(r.Dep.FEs))
	for _, fe := range r.Dep.FEs {
		m := make(map[feLogKey][]frontend.FetchRecord)
		for _, fr := range fe.FetchLog() {
			k := feLogKey{fr.Client, fr.ClientPort}
			m[k] = append(m[k], fr)
		}
		logs[fe.Host()] = m
	}
	for i := range ds.Records {
		rr := &ds.Records[i]
		if rr.Failed || rr.Key == (capture.ConnKey{}) {
			continue
		}
		fr, _ := matchFetch(logs[rr.FE][feLogKey{string(rr.Node), rr.Key.LocalPort}], rr.IssuedAt, rr.DoneAt)
		r.join(rr, fr)
	}
}

// beLink is the FE's assigned back-end and the base FE↔BE round-trip
// propagation delay.
type beLink struct {
	be  simnet.HostID
	rtt time.Duration
}

// FEResolver abstracts DNS-style client→FE resolution (implemented by
// dns.Resolver). Resolve returns the FE to use for a client at point p
// at virtual time now, plus the resolution cost the client pays first.
type FEResolver interface {
	Resolve(now time.Duration, client simnet.HostID, p geo.Point) (*frontend.Server, time.Duration)
}

// AOptions parameterize Experiment A.
type AOptions struct {
	// QueriesPerNode (default 20) and Interval (default 10 s, the
	// paper's pacing).
	QueriesPerNode int
	Interval       time.Duration
	// Queries is the shared query list; nodes cycle through it. When
	// nil, a generated granular-class corpus is used.
	Queries []workload.Query
	// QuerySeed generates the default corpus.
	QuerySeed int64
	// Resolver, when set, replaces the idealized nearest-FE mapping
	// with DNS-style resolution: per-lookup FE choice plus a
	// resolution delay on cache misses (paper footnote 3).
	Resolver FEResolver
}

func (o AOptions) withDefaults() AOptions {
	if o.QueriesPerNode <= 0 {
		o.QueriesPerNode = 20
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	return o
}

// corpusOr returns queries or, when empty, the generated granular corpus
// of n queries (n ≤ 0 → 20) that every campaign shape defaults to.
func corpusOr(queries []workload.Query, n int, seed int64) []workload.Query {
	if len(queries) > 0 {
		return queries
	}
	if n <= 0 {
		n = 20
	}
	return workload.NewGenerator(seed+77).Corpus(n, workload.ClassGranular)
}

// RunExperimentA runs the default-FE experiment: every node sends the
// shared query sequence to its DNS-default FE every Interval.
func (r *Runner) RunExperimentA(opts AOptions) *Dataset {
	return r.runExperimentARange(opts, 0, len(r.Fleet.Nodes))
}

// runExperimentARange runs Experiment A for the node index range
// [lo, hi) only — the per-batch body of RunShardedA. Query corpus and
// per-node stagger derive from global node indices, so a batch's nodes
// behave exactly as they would in the full campaign.
func (r *Runner) runExperimentARange(opts AOptions, lo, hi int) *Dataset {
	opts = opts.withDefaults()
	queries := corpusOr(opts.Queries, opts.QueriesPerNode, opts.QuerySeed)
	ds := r.newDataset("A")
	for i := lo; i < hi; i++ {
		node := r.Fleet.Nodes[i]
		defaultFE := r.Dep.DefaultFE(node.Point)
		start := stagger(i)
		for k := 0; k < opts.QueriesPerNode; k++ {
			q := queries[k%len(queries)]
			at := start + time.Duration(k)*opts.Interval
			if opts.Resolver == nil {
				r.issueAt(ds, at, node, defaultFE, q)
				continue
			}
			// DNS resolution happens at query time; the GET follows
			// after the lookup cost.
			r.Sim.ScheduleAt(at, func() {
				fe, cost := opts.Resolver.Resolve(r.Sim.Now(), node.Host, node.Point)
				r.issueAtDNS(ds, r.Sim.Now()+cost, node, fe, q, cost)
			})
		}
	}
	return r.finalize(ds)
}

// RunKeepAliveA is the connection-reuse variant of Experiment A: each
// node opens ONE persistent connection to its default FE and issues all
// its queries over it with "Connection: keep-alive" (browser behavior).
// The paper's emulator opens a fresh connection per query; comparing
// the two quantifies the handshake + cold-window cost. Records carry
// overall delays but no per-session packet events (the shared
// connection's trace cannot be split per query).
func (r *Runner) RunKeepAliveA(opts AOptions) *Dataset {
	opts = opts.withDefaults()
	queries := corpusOr(opts.Queries, opts.QueriesPerNode, opts.QuerySeed)
	ds := r.newDataset("A-keepalive")
	for i, node := range r.Fleet.Nodes {
		node := node
		fe := r.Dep.DefaultFE(node.Point)
		pc := httpsim.NewPersistentConn(r.eps[node.Host], fe.Host(), frontend.FEPort)
		start := stagger(i)
		for k := 0; k < opts.QueriesPerNode; k++ {
			q := queries[k%len(queries)]
			at := start + time.Duration(k)*opts.Interval
			r.Sim.ScheduleAt(at, func() {
				idx := len(ds.Records)
				ds.Records = append(ds.Records, r.newRecord(node.Host, fe.Host(), q, 0))
				req := httpsim.NewGet(r.Dep.Name, q.Path())
				req.Header["Connection"] = "keep-alive"
				pc.Do(req, httpsim.ResponseCallbacks{
					CountOnly: true,
					OnDone:    func(resp *httpsim.Response) { r.complete(&ds.Records[idx], resp) },
				})
			})
		}
	}
	r.Sim.Run()
	for _, fe := range r.Dep.FEs {
		ds.FEFetchTimes[fe.Host()] = fe.FetchTimes()
	}
	r.observe(ds)
	return ds
}

// OpenLoopOptions parameterize an open-loop arrival campaign: every
// node issues queries on its own fixed schedule regardless of
// completions, so offered load is a pure function of the options — the
// harness for the overload, hotspot and failover scenarios against
// queue-enabled back ends (docs/QUEUEING.md).
type OpenLoopOptions struct {
	// FE, when set, is the fixed front-end every node queries;
	// nil → each node's default (nearest) FE.
	FE *frontend.Server
	// Queries is the corpus nodes cycle through (generated granular
	// corpus of QueriesPerNode when empty).
	Queries        []workload.Query
	QueriesPerNode int
	QuerySeed      int64
	// Horizon is the arrival horizon: nodes stop issuing at this sim
	// time (completions may land later).
	Horizon time.Duration
	// BaseInterval is the per-node inter-arrival time outside the surge
	// window.
	BaseInterval time.Duration
	// SurgeStart/SurgeEnd bound the half-open surge window
	// [SurgeStart, SurgeEnd) during which each node's arrival rate is
	// multiplied by SurgeFactor (≥ 2 for a traffic spike; 0 or 1 = no
	// rate surge).
	SurgeStart, SurgeEnd time.Duration
	SurgeFactor          int
	// HotQuery, when set, replaces the corpus inside the surge window —
	// the hotspot-keyword scenario: a complex query whose larger
	// service time overloads the cluster at an unchanged arrival rate.
	HotQuery workload.Query
	// Curve, when non-nil, modulates each node's arrival rate by a
	// piecewise-linear diurnal shape: the inter-arrival step at time t
	// is BaseInterval divided by Curve.Rate(t) (here a dimensionless
	// multiplier; 1.0 = BaseInterval pacing). Zero-rate stretches pause
	// arrivals until the curve rises again. Composes multiplicatively
	// with the surge window.
	Curve *DiurnalCurve
}

// RunOpenLoop runs an open-loop arrival campaign and returns its
// dataset. Arrival times are deterministic: node i starts at the usual
// fleet stagger and steps by BaseInterval (BaseInterval/SurgeFactor
// inside the surge window), issuing corpus queries in sequence (the
// HotQuery inside the window, when set).
func (r *Runner) RunOpenLoop(opts OpenLoopOptions) *Dataset {
	queries := corpusOr(opts.Queries, opts.QueriesPerNode, opts.QuerySeed)
	ds := r.newDataset("open-loop")
	for i, node := range r.Fleet.Nodes {
		fe := opts.FE
		if fe == nil {
			fe = r.Dep.DefaultFE(node.Point)
		}
		start := stagger(i)
		k := 0
		for at := start; at < opts.Horizon; {
			surging := at >= opts.SurgeStart && at < opts.SurgeEnd
			q := queries[k%len(queries)]
			if surging && opts.HotQuery.Keywords != "" {
				q = opts.HotQuery
			}
			r.issueAt(ds, at, node, fe, q)
			k++
			step := opts.BaseInterval
			if surging && opts.SurgeFactor > 1 {
				step = opts.BaseInterval / time.Duration(opts.SurgeFactor)
			}
			if opts.Curve != nil {
				if rate := opts.Curve.Rate(at); rate > 0 {
					step = time.Duration(float64(step) / rate)
				} else {
					// Zero-rate stretch: jump to the next anchor where
					// the curve can rise again, not past the horizon.
					next := opts.Horizon
					for _, p := range opts.Curve.Points {
						if p.At > at && p.At < next {
							next = p.At
							break
						}
					}
					at = next
					continue
				}
			}
			at += step
		}
	}
	return r.finalize(ds)
}

// BOptions parameterize Experiment B.
type BOptions struct {
	// FE is the fixed front-end server every node queries.
	FE *frontend.Server
	// Repeats per node (paper: 720) and Interval between repeats.
	Repeats  int
	Interval time.Duration
	// Query is the single repeated query. Zero value → a generated
	// granular query.
	Query workload.Query
	// QuerySeed generates the default query.
	QuerySeed int64
}

func (o BOptions) withDefaults() BOptions {
	if o.Repeats <= 0 {
		o.Repeats = 720
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	return o
}

// RunExperimentB runs the fixed-FE experiment: all nodes repeatedly
// query one FE server, whatever their distance to it.
func (r *Runner) RunExperimentB(opts BOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	if opts.FE == nil {
		return nil, fmt.Errorf("emulator: experiment B needs a fixed FE")
	}
	q := opts.Query
	if q.Keywords == "" {
		gen := workload.NewGenerator(opts.QuerySeed + 177)
		q = gen.Query(workload.ClassGranular)
	}
	ds := r.newDataset("B")
	for i, node := range r.Fleet.Nodes {
		start := stagger(i)
		for k := 0; k < opts.Repeats; k++ {
			r.issueAt(ds, start+time.Duration(k)*opts.Interval, node, opts.FE, q)
		}
	}
	return r.finalize(ds), nil
}

// KeywordSweep runs the Figure-3 experiment: one node, one fixed FE,
// sequential sample queries per keyword class.
func (r *Runner) KeywordSweep(fe *frontend.Server, node vantage.Node,
	samplesPerClass int, interval time.Duration, querySeed int64) map[workload.Class]*Dataset {
	out := make(map[workload.Class]*Dataset)
	gen := workload.NewGenerator(querySeed)
	// Interleave classes in time so slow drift affects all equally.
	for ci, class := range workload.Classes() {
		ds := r.newDataset(fmt.Sprintf("fig3-%s", class))
		q := gen.Query(class)
		for k := 0; k < samplesPerClass; k++ {
			at := time.Duration(k)*interval + time.Duration(ci)*(interval/8)
			r.issueAt(ds, at, node, fe, q)
		}
		out[class] = ds
	}
	r.Sim.Run()
	for _, ds := range out {
		r.finalize(ds)
	}
	return out
}

// CachingProbe runs the Section-3 caching-detection methodology against
// a fixed FE: phase 1 has every node submit the SAME query; phase 2 has
// every node submit a DIFFERENT query. If FEs (or BEs) cached results,
// phase 1's Tdynamic would collapse; the paper observed no difference.
func (r *Runner) CachingProbe(fe *frontend.Server, repeats int,
	interval time.Duration, querySeed int64) (same, distinct *Dataset) {
	gen := workload.NewGenerator(querySeed)
	// Draw the shared query from the same pool as the distinct ones so
	// the phases have identical term counts and popularity bands —
	// any Tdynamic difference then isolates result caching.
	pool := gen.DistinctQueries(len(r.Fleet.Nodes)*repeats + 1)
	shared, distinctQs := pool[0], pool[1:]

	same = r.newDataset("caching-same")
	distinct = r.newDataset("caching-distinct")
	di := 0
	for i, node := range r.Fleet.Nodes {
		start := stagger(i)
		for k := 0; k < repeats; k++ {
			at := start + time.Duration(k)*interval
			// Interleave the phases so slowly varying server load
			// affects both equally.
			r.issueAt(same, at, node, fe, shared)
			r.issueAt(distinct, at+interval/2, node, fe, distinctQs[di])
			di++
		}
	}
	r.Sim.Run()
	r.finalize(same)
	r.finalize(distinct)
	return same, distinct
}
