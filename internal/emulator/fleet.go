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
	"fesplit/internal/shard"
	"fesplit/internal/tcpsim"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// FleetOptions parameterize an ephemeral-client fleet campaign: an
// open-loop arrival process over a diurnal rate curve, where every
// arrival is a short-lived synthetic client that connects, runs one
// query, is folded into the streaming sink, and vanishes. Unlike the
// materialized vantage fleet (Options.Nodes), the client population
// never exists in memory at once: arrivals run on a bounded pool of
// recycled vantage slots, so a million-client campaign holds only
// peak-concurrency state.
type FleetOptions struct {
	// Clients caps the total number of ephemeral client arrivals
	// (0 = until the curve's horizon).
	Clients int
	// Curve is the fleet-wide arrival-rate curve (arrivals/second).
	// The k-th arrival time is the curve's cumulative integral inverted
	// at k — a pure function of the curve, identical across batch
	// layouts.
	Curve DiurnalCurve
	// Queries is the corpus arrivals cycle through by global arrival
	// index (generated granular corpus of QueriesPerNode when empty).
	Queries        []workload.Query
	QueriesPerNode int
	QuerySeed      int64
	// FleetSeed derives each slot's geography via vantage.SynthNode.
	FleetSeed int64
	// Access is the slots' last-mile profile (default campus).
	Access vantage.AccessProfile
	// ClientTCP overrides slot TCP configuration. RecycleConns is
	// forced on: slot endpoints churn one connection per arrival, the
	// free-list's exact use case (proven transcript-identical by the
	// tcpsim recycle differential suite).
	ClientTCP tcpsim.Config
	// Obs, when non-nil, wires metrics and (if it carries a tail
	// sampler) the FE fetch log every folded record is joined with.
	Obs *obs.Observer
	// Runtime receives fleet gauges (arrivals, live, slots, pooled)
	// and heap-watermark samples.
	Runtime *rt.Engine
	// Sink consumes every folded record; required. The fleet path is
	// streaming-only — there is no Dataset to accumulate.
	Sink RecordSink

	// arrival/slot striding for sharded campaigns (RunFleet): this
	// runner owns global arrival indices k with k % stride == offset,
	// and derives slot geography indices in the same residue class so
	// hosts stay unique across batch worlds.
	stride, offset int
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.Access == (vantage.AccessProfile{}) {
		o.Access = vantage.CampusProfile()
	}
	if o.stride <= 0 {
		o.stride = 1
	}
	return o
}

// FleetResult summarizes one fleet-campaign world.
type FleetResult struct {
	// Arrivals issued and completions folded (equal once the simulator
	// drains — open-loop arrivals always complete, possibly as 503s).
	Arrivals  int
	Completed int
	// Rejected counts completions with a 503 status (FE admission or
	// BE-cluster overload surfaced to the client).
	Rejected int
	// Slots is how many pooled slot objects the campaign ever created —
	// the peak-concurrency witness that bounds the memory claim.
	Slots int
	// PeakLive is the largest number of arrivals simultaneously in
	// flight.
	PeakLive int
	// PeakFELog is the largest live FE fetch-log length observed at
	// prune time — with pruning it tracks in-flight count, not total
	// arrivals.
	PeakFELog int
	// ArenaCap is the final node capacity of the span arena the
	// campaign's sink assembled span trees in. The sink owns that arena
	// (see analysis.Fold), so its owner fills this in; the runner leaves
	// it zero.
	ArenaCap int
}

// fleetSlot is one pooled vantage host: fixed deterministic geography
// (wired once, so the topology version — and with it the TCP fast lane
// — stays stable after pool ramp-up), a recycling TCP endpoint, a
// reusable packet recorder, and a reusable Record. Successive arrivals
// on one slot are distinct ephemeral clients observing from the same
// locale.
type fleetSlot struct {
	node   vantage.Node
	fe     *frontend.Server
	ep     *tcpsim.Endpoint
	rec    *capture.Recorder
	record Record
	outIdx int
}

// outQueue tracks outstanding arrivals in issue order (arrival times
// are monotone), yielding the oldest uncompleted arrival time — the
// FE-log prune cutoff. Completed heads are popped lazily; the slice
// compacts in place so memory tracks the in-flight window.
type outQueue struct {
	entries []outEntry
	base    int
	head    int
}

type outEntry struct {
	at   time.Duration
	done bool
}

func (q *outQueue) push(at time.Duration) int {
	q.entries = append(q.entries, outEntry{at: at})
	return q.base + len(q.entries) - 1
}

func (q *outQueue) markDone(abs int) { q.entries[abs-q.base].done = true }

// min pops completed heads and returns the oldest outstanding arrival
// time (false when nothing is outstanding).
func (q *outQueue) min() (time.Duration, bool) {
	for q.head < len(q.entries) && q.entries[q.head].done {
		q.head++
	}
	if q.head > 1024 && q.head*2 > len(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		q.entries = q.entries[:n]
		q.base += q.head
		q.head = 0
	}
	if q.head < len(q.entries) {
		return q.entries[q.head].at, true
	}
	return 0, false
}

// FleetRunner owns one fleet-campaign world.
type FleetRunner struct {
	*world

	opts    FleetOptions
	queries []workload.Query
	metros  []geo.Site

	slots    []*fleetSlot
	free     []*fleetSlot
	freeHead int

	evScratch []capture.Event
	out       outQueue

	res  FleetResult
	live int
}

// NewFleetRunner builds a fleet-campaign world: simulator, network and
// deployment, but no materialized client fleet — slots are synthesized
// on concurrency demand during Run.
func NewFleetRunner(simSeed int64, depCfg cdn.Config, opts FleetOptions) (*FleetRunner, error) {
	opts = opts.withDefaults()
	if err := opts.Curve.Validate(); err != nil {
		return nil, err
	}
	if opts.Sink == nil {
		return nil, fmt.Errorf("emulator: fleet campaign requires a record sink")
	}
	// Fleet captures are timeline-only, so the world is length-only.
	w, err := newWorld(simSeed, depCfg, true, opts.Obs, opts.Runtime)
	if err != nil {
		return nil, err
	}
	r := &FleetRunner{
		world:   w,
		opts:    opts,
		queries: corpusOr(opts.Queries, opts.QueriesPerNode, opts.QuerySeed),
		metros:  geo.WorldMetros(),
	}
	r.opts.ClientTCP.RecycleConns = true
	return r, nil
}

// claim pops the oldest-released free slot (FIFO, so successive
// arrivals cycle through the pool's geographies) or synthesizes a new
// one when every slot is busy.
func (r *FleetRunner) claim() *fleetSlot {
	if r.freeHead < len(r.free) {
		s := r.free[r.freeHead]
		r.free[r.freeHead] = nil
		r.freeHead++
		if r.freeHead > 64 && r.freeHead*2 > len(r.free) {
			n := copy(r.free, r.free[r.freeHead:])
			r.free = r.free[:n]
			r.freeHead = 0
		}
		r.rt.AddFleetPooled(-1)
		return s
	}
	idx := r.opts.offset + len(r.slots)*r.opts.stride
	n := vantage.SynthNode(r.opts.FleetSeed, idx, r.metros, r.opts.Access)
	ep, rec := r.newClient(n.Host, r.opts.ClientTCP)
	r.Dep.WireClient(n.Host, n.Point, n.OneWay, n.Access.Jitter, n.Access.Loss)
	s := &fleetSlot{node: n, fe: r.Dep.DefaultFE(n.Point), ep: ep, rec: rec}
	r.slots = append(r.slots, s)
	r.res.Slots = len(r.slots)
	r.rt.NoteFleetSlot()
	return s
}

// release returns a slot to the free pool.
func (r *FleetRunner) release(s *fleetSlot) {
	r.free = append(r.free, s)
	r.rt.AddFleetPooled(1)
}

// Run drives the campaign to completion: the arrival generator walks
// the curve inside the simulation (one pending driver event at a time,
// so the scheduler never holds the whole arrival sequence), every
// completion folds into the sink, and the world drains. Returns the
// campaign summary.
func (r *FleetRunner) Run() *FleetResult {
	gen := newArrivals(r.opts.Curve)
	k := 0
	var schedule func()
	schedule = func() {
		for {
			if r.opts.Clients > 0 && k >= r.opts.Clients {
				return
			}
			at, ok := gen.next()
			if !ok {
				return
			}
			idx := k
			k++
			if idx%r.opts.stride != r.opts.offset {
				continue
			}
			r.Sim.ScheduleAt(at, func() {
				r.issue(idx)
				schedule()
			})
			return
		}
	}
	schedule()
	r.Sim.Run()
	// Final prune pass and watermark sample close out the world.
	r.prune()
	r.rt.SampleMem()
	return &r.res
}

// issue runs one ephemeral client: claim a slot, dial its default FE,
// fold on completion.
func (r *FleetRunner) issue(idx int) {
	s := r.claim()
	s.rec.ResetKeep()
	s.record = r.newRecord(s.node.Host, s.fe.Host(), r.queries[idx%len(r.queries)], 0)
	s.outIdx = r.out.push(s.record.IssuedAt)
	r.res.Arrivals++
	r.live++
	if r.live > r.res.PeakLive {
		r.res.PeakLive = r.live
	}
	r.rt.NoteFleetArrival()
	r.get(s.ep, &s.record, func(resp *httpsim.Response) { r.fold(s, resp) })
}

// fold finalizes one completed arrival: carve the session's events out
// of the slot recorder, join the FE's ground truth, hand the record to
// the sink, then recycle everything — recorder slab, Record struct,
// slot.
func (r *FleetRunner) fold(s *fleetSlot, resp *httpsim.Response) {
	rr := &s.record
	r.complete(rr, resp)
	if resp.Status == 503 {
		r.res.Rejected++
	}

	// The recorder holds this session (reset at issue); strays from the
	// previous tenant's close handshake are filtered out by key.
	r.evScratch = s.rec.Trace().Session(rr.Key, r.evScratch[:0])
	rr.Events = r.evScratch

	// A failed join yields the zero FetchRecord: no ground truth.
	fr, _ := findFetch(s.fe, string(s.node.Host), rr.Key.LocalPort, rr.IssuedAt, rr.DoneAt)
	r.join(rr, fr)

	r.opts.Sink.Consume(rr)
	r.rt.NoteRecord()
	r.rt.NoteFleetDone()

	rr.Events = nil
	s.rec.ResetKeep()
	r.out.markDone(s.outIdx)
	r.release(s)
	r.live--
	r.res.Completed++
	if r.res.Completed%pruneEvery == 0 {
		r.prune()
	}
}

// pruneEvery is the fold cadence of FE fetch-log pruning, in
// completions.
const pruneEvery = 64

// prune trims every FE's fetch log below the oldest outstanding
// arrival — completed entries were already joined at fold time.
func (r *FleetRunner) prune() {
	cutoff, ok := r.out.min()
	if !ok {
		// Nothing outstanding: everything logged so far was folded.
		cutoff = r.Sim.Now() + 1
	}
	for _, fe := range r.Dep.FEs {
		if n := len(fe.FetchLog()); n > r.res.PeakFELog {
			r.res.PeakFELog = n
		}
		fe.PruneFetchLog(cutoff)
	}
}

// findFetch scans an FE's live fetch log backward for the record of
// the (client, port) session whose GET arrived inside the query
// window. The log is arrival-ordered and pruned to the in-flight
// window, so the scan is short and stops at the first entry older than
// the query.
func findFetch(fe *frontend.Server, client string, port uint16, issued, done time.Duration) (frontend.FetchRecord, bool) {
	log := fe.FetchLog()
	for i := len(log) - 1; i >= 0; i-- {
		fr := &log[i]
		if fr.Arrived < issued {
			break
		}
		if fr.Arrived <= done && fr.Client == client && fr.ClientPort == port {
			return *fr, true
		}
	}
	return frontend.FetchRecord{}, false
}

// FleetShardedOptions parameterize RunFleet, the sharded fleet
// campaign. Arrivals are strided across batches (global arrival k runs
// in batch k mod Batches), so every batch world sees the full diurnal
// shape at 1/Batches of the fleet rate. As with RunShardedA, batches
// are independent worlds: changing Batches changes the (still fully
// deterministic) cross-client load interactions.
type FleetShardedOptions struct {
	// SimSeed is the base simulator seed; batch b runs on
	// shard.Mix(SimSeed, b).
	SimSeed int64
	// Deployment is the service under test, shared by every batch.
	Deployment cdn.Config
	// Fleet configures each batch's campaign. Its Sink/Obs fields are
	// ignored — use the per-batch factories below.
	Fleet FleetOptions
	// Batches is the arrival-stride count (≤ 0 → DefaultNodeBatches).
	Batches int
	// Workers caps the goroutines running batches (0 → NumCPU).
	Workers int
	// Sink must return a fresh RecordSink private to the batch;
	// required. o is the batch's observer (nil without Observe).
	Sink func(batch int, o *obs.Observer) RecordSink
	// Observe, when non-nil, returns a fresh Observer private to the
	// batch.
	Observe func(batch int) *obs.Observer
	// Runtime receives fleet gauges, task progress and heap watermark
	// samples from all batches.
	Runtime *rt.Engine
}

// RunFleet runs the ephemeral-client fleet campaign split into strided
// arrival batches, each in its own world on its own worker goroutine.
// Results, observers (nil unless Observe was set) and sinks come back
// in batch order — the canonical merge order.
func RunFleet(opts FleetShardedOptions) ([]*FleetResult, []*obs.Observer, []RecordSink, error) {
	k := opts.Batches
	if k <= 0 {
		k = DefaultNodeBatches
	}
	names := make([]string, k)
	for b := range names {
		names[b] = fmt.Sprintf("fleet[%d/%d]", b, k)
	}
	results := make([]*FleetResult, k)
	obsvs, sinks, err := runSharded(names, opts.Workers, opts.Runtime, opts.Observe, opts.Sink,
		func(b int, o *obs.Observer, sink RecordSink) error {
			fopts := opts.Fleet
			fopts.stride, fopts.offset = k, b
			fopts.Runtime = opts.Runtime
			fopts.Sink = sink
			fopts.Obs = o
			fr, err := NewFleetRunner(shard.Mix(opts.SimSeed, uint64(b)), opts.Deployment, fopts)
			if err != nil {
				return err
			}
			results[b] = fr.Run()
			return nil
		})
	if err != nil {
		return nil, nil, nil, err
	}
	return results, obsvs, sinks, nil
}

// MergeFleetResults sums per-batch campaign summaries (peaks take the
// max of the batch peaks — batches run concurrently in independent
// worlds, so the sum would overstate a single world's footprint).
func MergeFleetResults(rs ...*FleetResult) FleetResult {
	var out FleetResult
	for _, r := range rs {
		if r == nil {
			continue
		}
		out.Arrivals += r.Arrivals
		out.Completed += r.Completed
		out.Rejected += r.Rejected
		out.Slots += r.Slots
		if r.PeakLive > out.PeakLive {
			out.PeakLive = r.PeakLive
		}
		if r.PeakFELog > out.PeakFELog {
			out.PeakFELog = r.PeakFELog
		}
		if r.ArenaCap > out.ArenaCap {
			out.ArenaCap = r.ArenaCap
		}
	}
	return out
}
