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
	"fesplit/internal/obs/critpath"
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
	// Measured: a Measurer (Options.Measure) took the session's events
	// instead of the record and wrote Timeline, valid when they parsed
	// (Parsed), Retrans, the events marked retransmitted (both
	// directions), and Skip: nil, or why the record has no parameters.
	Measured, Parsed bool
	Retrans          int32
	Timeline         critpath.Timeline
	Skip             error
	// Key names the session's connection in the node's recorder.
	Key capture.ConnKey
	// Events is the session's client-side packet event list, attached
	// when the run ends; Payloads the bytes its unsnapped events
	// captured (capture.Recorder.Payloads), nil in a length-only world.
	Events   []capture.Event
	Payloads [][]byte
	// TrueFetch is the FE-side ground-truth fetch time of this query
	// (GET arrival at the FE to the complete dynamic portion from the
	// BE), from the truth the FE handed over for the query's connection,
	// observed or not. Zero when the BE fetch failed or degraded, and on
	// keep-alive records.
	TrueFetch time.Duration
	// Fetch is the FE's handed-over truth itself — the instants a span
	// tree draws the FE-side phases from, and the BE the fetch went to
	// (zero value when nothing joined).
	Fetch frontend.FetchRecord
	// BERTT is the base FE↔BE round-trip propagation delay to Fetch.BE,
	// which critical-path attribution (internal/obs/critpath) splits the
	// fetch window by. Set with Fetch.BE.
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

// Measurer writes a record's Timeline, Parsed, Retrans and Skip from its
// connection's client-side events, which are valid during the call
// (internal/analysis implements it for a known content boundary).
type Measurer interface {
	Measure(rr *Record, events []capture.Event)
}

// Dataset is the output of one experiment: its records, in issue order.
// Each record carries its FE's ground truth (TrueFetch) and its session
// events.
type Dataset struct {
	Records []Record
}

// newDataset reserves room for the n records a campaign will issue.
// Records are still appended as they issue, so their order is sim-time
// issue order; the reservation only spares the slice its regrowth.
func newDataset(n int) *Dataset {
	return &Dataset{Records: make([]Record, 0, n)}
}

// world is the plumbing every simulated world shares, whatever its
// client population: simulator, network and deployment, the optional
// observability wiring (simulator counters, one TCP stack bundle for
// every endpoint, per-FE/BE labeled metrics), the optional wall-clock
// telemetry hub, and the live-query table every FE hands its ground
// truth to. Runner and FleetRunner embed it.
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
	// live holds each query in flight by its connection: get adds it,
	// the FE's hand-over stages its truth there, complete joins it. The
	// measurer (Options.Measure) removes an entry once it has measured
	// the connection; without one, complete does.
	live    map[nodePort]liveQuery
	measure Measurer
}

// nodePort names a client connection by its node and local port.
type nodePort struct {
	node simnet.HostID
	port uint16
}

// liveQuery is a query in flight and the FE truth staged for it.
type liveQuery struct {
	rr    *Record
	fetch frontend.FetchRecord
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
		live: make(map[nodePort]liveQuery)}
	for _, fe := range dep.FEs {
		fe.OnFetch = w.handOver
	}
	if rtm != nil {
		sim.SetRuntime(rtm)
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
	return w, nil
}

// newClient attaches one client host to the world: a TCP endpoint
// reporting to the world's stack bundle, with a packet recorder on its
// tap (a snapped world's recorder drops whatever payload bytes reach it).
// Nothing keeps a client connection object past its close (get reads
// the local port at dial time, a closed PersistentConn no longer
// touches its connection), so client endpoints recycle them.
func (w *world) newClient(host simnet.HostID, cfg tcpsim.Config) (*tcpsim.Endpoint, *capture.Recorder) {
	cfg.RecycleConns = true
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

// handOver stages an FE's truth on the live query of its client
// connection. A GET that arrived before that query was issued belonged
// to the port's earlier connection, and is dropped.
func (w *world) handOver(fr frontend.FetchRecord) {
	k := nodePort{simnet.HostID(fr.Client), fr.ClientPort}
	if q, ok := w.live[k]; ok && fr.Arrived >= q.rr.IssuedAt {
		q.fetch = fr
		w.live[k] = q
	}
}

// complete fills the response side of a record and joins the FE truth
// staged for its connection: the FE's record (the zero value when none
// was handed over), the fetch time it implies, and the base RTT to the
// BE the fetch went to. The FE hands its truth over before it sends the
// response's last byte, so it is final here. A keep-alive record has no
// connection of its own and joins nothing; a degraded query's BE fetch
// never completes (FetchDone stays zero), so it has no fetch time.
func (w *world) complete(rr *Record, resp *httpsim.Response) {
	rr.Failed = false
	rr.DoneAt = w.Sim.Now()
	rr.Status = resp.Status
	rr.BodyLen = resp.BodyLen
	k := nodePort{rr.Node, rr.Key.LocalPort}
	q, ok := w.live[k]
	if !ok || q.rr != rr {
		return
	}
	if w.measure == nil {
		delete(w.live, k)
	}
	rr.Fetch = q.fetch
	if rr.Fetch.FetchDone > 0 {
		rr.TrueFetch = rr.Fetch.FetchDone - rr.Fetch.Arrived
	}
	if rr.Fetch.BE != "" {
		rr.BERTT = w.Net.RTT(rr.FE, rr.Fetch.BE)
	}
}

// get sends the record's query to its FE on a fresh connection from ep,
// stamps the connection's key on the record and makes it a live query;
// onDone runs when the response completes. The response is counted,
// never retained: the capture is the record of content.
func (w *world) get(ep *tcpsim.Endpoint, rr *Record, onDone func(*httpsim.Response)) {
	conn := httpsim.Get(ep, rr.FE, frontend.FEPort, httpsim.NewGet(w.Dep.Name, rr.Query.Path()),
		httpsim.ResponseCallbacks{CountOnly: true, OnDone: onDone})
	rr.Key = capture.ConnKey{Remote: string(rr.FE), LocalPort: conn.LocalPort(), RemotePort: frontend.FEPort}
	w.live[nodePort{rr.Node, rr.Key.LocalPort}] = liveQuery{rr: rr}
}

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
	// ClientTCP overrides the client endpoints' TCP configuration;
	// RecycleConns is always on.
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
	// bundle and per-FE/BE labeled metrics. It changes what is exported,
	// never what the world records: every record joins its FE's ground
	// truth either way. Nil costs nothing on the hot paths.
	Obs *obs.Observer
	// Runtime, when non-nil, publishes engine liveness (events/sec,
	// sim-time ratio, fast-path activity, heap watermark) to the
	// wall-clock telemetry hub. Unlike Obs it is shared across
	// concurrent worlds and never touches the deterministic exports.
	Runtime *rt.Engine
	// Measure, when non-nil, measures each record as soon as its capture
	// list is final (capture.Recorder.OnFinal reuses its buffer), or when
	// the run ends. Nil attaches every record's events instead.
	Measure Measurer
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
	w.measure = opts.Measure
	r := &Runner{
		world: w,
		Fleet: fleet,
		eps:   make(map[simnet.HostID]*tcpsim.Endpoint),
		recs:  make(map[simnet.HostID]*capture.Recorder),
	}
	for _, n := range fleet.Nodes {
		ep, rec := w.newClient(n.Host, opts.ClientTCP)
		if r.measure != nil {
			rec.OnFinal = func(k capture.ConnKey, evs []capture.Event) {
				np := nodePort{n.Host, k.LocalPort}
				if q, ok := r.live[np]; ok {
					delete(r.live, np)
					r.measure.Measure(q.rr, evs)
					q.rr.Measured = true
				}
			}
		}
		r.eps[n.Host], r.recs[n.Host] = ep, rec
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

// issueAt schedules one query from node to fe at virtual time at,
// appending its Record to ds then; dnsTime is the resolution cost the
// query paid before at.
func (r *Runner) issueAt(ds *Dataset, at time.Duration, node vantage.Node,
	fe *frontend.Server, q workload.Query, dnsTime time.Duration) {
	r.Sim.ScheduleAt(at, func() {
		idx := len(ds.Records)
		ds.Records = append(ds.Records, r.newRecord(node.Host, fe.Host(), q, dnsTime))
		r.get(r.eps[node.Host], &ds.Records[idx], func(resp *httpsim.Response) {
			r.complete(&ds.Records[idx], resp)
		})
	})
}

// finalize runs the simulator to completion, measures each record not
// measured yet or else attaches its session events, and flushes the
// simulator and network metrics into the observer's registry. How a
// record is measured is internal/analysis's business.
func (r *Runner) finalize(dss ...*Dataset) {
	r.Sim.Run()
	clear(r.live)
	// The recorders filed every packet under its connection: a record's
	// events are its connection's list (none for a keep-alive record,
	// whose key is zero).
	for _, ds := range dss {
		for i := range ds.Records {
			rr := &ds.Records[i]
			rec := r.recs[rr.Node]
			switch {
			case rec == nil || rr.Measured:
			case r.measure != nil:
				r.measure.Measure(rr, rec.Session(rr.Key))
				rr.Measured = true
			default:
				rr.Events, rr.Payloads = rec.Session(rr.Key), rec.Payloads(rr.Key)
			}
		}
	}
	if r.obsv != nil {
		r.simMetrics.Flush()
	}
	// One heap reading per completed world: with many batch worlds in
	// flight this is what traces the campaign's memory watermark.
	r.rt.SampleMem()
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

// corpusOr returns queries or, when empty, corpus(n, seed).
func corpusOr(queries []workload.Query, n int, seed int64) []workload.Query {
	if len(queries) > 0 {
		return queries
	}
	return corpus(n, seed)
}

// corpus generates the granular-class corpus of n queries (n ≤ 0 → 20)
// that every campaign shape defaults to.
func corpus(n int, seed int64) []workload.Query {
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
	ds := newDataset((hi - lo) * opts.QueriesPerNode)
	for i := lo; i < hi; i++ {
		node := r.Fleet.Nodes[i]
		defaultFE := r.Dep.DefaultFE(node.Point)
		start := vantage.Stagger(i)
		for k := 0; k < opts.QueriesPerNode; k++ {
			q := queries[k%len(queries)]
			at := start + time.Duration(k)*opts.Interval
			if opts.Resolver == nil {
				r.issueAt(ds, at, node, defaultFE, q, 0)
				continue
			}
			// DNS resolution happens at query time; the GET follows
			// after the lookup cost.
			r.Sim.ScheduleAt(at, func() {
				fe, cost := opts.Resolver.Resolve(r.Sim.Now(), node.Host, node.Point)
				r.issueAt(ds, r.Sim.Now()+cost, node, fe, q, cost)
			})
		}
	}
	r.finalize(ds)
	return ds
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
	ds := newDataset(len(r.Fleet.Nodes) * opts.QueriesPerNode)
	for i, node := range r.Fleet.Nodes {
		node := node
		fe := r.Dep.DefaultFE(node.Point)
		pc := httpsim.NewPersistentConn(r.eps[node.Host], fe.Host(), frontend.FEPort)
		start := vantage.Stagger(i)
		for k := 0; k < opts.QueriesPerNode; k++ {
			q := queries[k%len(queries)]
			at := start + time.Duration(k)*opts.Interval
			r.Sim.ScheduleAt(at, func() {
				idx := len(ds.Records)
				ds.Records = append(ds.Records, r.newRecord(node.Host, fe.Host(), q, 0))
				req := httpsim.NewGet(r.Dep.Name, q.Path())
				req.Header = httpsim.Header{"Connection": "keep-alive"}
				pc.Do(req, httpsim.ResponseCallbacks{
					CountOnly: true,
					OnDone:    func(resp *httpsim.Response) { r.complete(&ds.Records[idx], resp) },
				})
			})
		}
	}
	r.finalize(ds)
	return ds
}

// OpenLoopOptions parameterize an open-loop arrival campaign: every
// node issues queries on its own fixed schedule regardless of
// completions, so offered load is a pure function of the options — the
// harness for the overload, hotspot and failover scenarios against
// queue-enabled back ends (docs/OPERATING.md §3).
type OpenLoopOptions struct {
	// FE, when set, is the fixed front-end every node queries;
	// nil → each node's default (nearest) FE.
	FE *frontend.Server
	// QueriesPerNode (default 20) sizes the generated granular corpus
	// nodes cycle through; QuerySeed generates it.
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
}

// RunOpenLoop runs an open-loop arrival campaign and returns its
// dataset. Arrival times are deterministic: node i starts at the usual
// fleet stagger and steps by BaseInterval (BaseInterval/SurgeFactor
// inside the surge window), issuing corpus queries in sequence (the
// HotQuery inside the window, when set).
func (r *Runner) RunOpenLoop(opts OpenLoopOptions) *Dataset {
	queries := corpus(opts.QueriesPerNode, opts.QuerySeed)
	ds, n := &Dataset{}, 0
	for i, node := range r.Fleet.Nodes {
		fe := opts.FE
		if fe == nil {
			fe = r.Dep.DefaultFE(node.Point)
		}
		start := vantage.Stagger(i)
		k := 0
		for at := start; at < opts.Horizon; {
			surging := at >= opts.SurgeStart && at < opts.SurgeEnd
			q := queries[k%len(queries)]
			if surging && opts.HotQuery.Keywords != "" {
				q = opts.HotQuery
			}
			r.issueAt(ds, at, node, fe, q, 0)
			k++
			n++
			step := opts.BaseInterval
			if surging && opts.SurgeFactor > 1 {
				step = opts.BaseInterval / time.Duration(opts.SurgeFactor)
			}
			at += step
		}
	}
	ds.Records = make([]Record, 0, n)
	r.finalize(ds)
	return ds
}

// BOptions parameterize Experiment B.
type BOptions struct {
	// FE is the fixed front-end server every node queries.
	FE *frontend.Server
	// Repeats per node (paper: 720) and Interval between repeats.
	Repeats  int
	Interval time.Duration
	// QuerySeed generates the single repeated query, a granular one.
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
	q := workload.NewGenerator(opts.QuerySeed + 177).Query(workload.ClassGranular)
	ds := newDataset(len(r.Fleet.Nodes) * opts.Repeats)
	for i, node := range r.Fleet.Nodes {
		start := vantage.Stagger(i)
		for k := 0; k < opts.Repeats; k++ {
			r.issueAt(ds, start+time.Duration(k)*opts.Interval, node, opts.FE, q, 0)
		}
	}
	r.finalize(ds)
	return ds, nil
}

// KeywordSweep runs the Figure-3 experiment: one node, one fixed FE,
// sequential sample queries per keyword class.
func (r *Runner) KeywordSweep(fe *frontend.Server, node vantage.Node,
	samplesPerClass int, interval time.Duration, querySeed int64) map[workload.Class]*Dataset {
	out := make(map[workload.Class]*Dataset)
	var dss []*Dataset
	gen := workload.NewGenerator(querySeed)
	// Interleave classes in time so slow drift affects all equally.
	for ci, class := range workload.Classes() {
		ds := newDataset(max(samplesPerClass, 0))
		q := gen.Query(class)
		for k := 0; k < samplesPerClass; k++ {
			at := time.Duration(k)*interval + time.Duration(ci)*(interval/8)
			r.issueAt(ds, at, node, fe, q, 0)
		}
		out[class] = ds
		dss = append(dss, ds)
	}
	r.finalize(dss...)
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
	n := len(r.Fleet.Nodes) * repeats
	pool := gen.DistinctQueries(n + 1)
	shared, distinctQs := pool[0], pool[1:]

	same, distinct = newDataset(n), newDataset(n)
	di := 0
	for i, node := range r.Fleet.Nodes {
		start := vantage.Stagger(i)
		for k := 0; k < repeats; k++ {
			at := start + time.Duration(k)*interval
			// Interleave the phases so slowly varying server load
			// affects both equally.
			r.issueAt(same, at, node, fe, shared, 0)
			r.issueAt(distinct, at+interval/2, node, fe, distinctQs[di], 0)
			di++
		}
	}
	r.finalize(same, distinct)
	return same, distinct
}
