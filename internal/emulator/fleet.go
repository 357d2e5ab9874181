package emulator

import (
	"fmt"

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
	// QuerySeed generates the 20-query granular corpus arrivals cycle
	// through by global arrival index.
	QuerySeed int64
	// FleetSeed derives each slot's geography, behind the campus
	// access profile, via vantage.SynthNode.
	FleetSeed int64
	// Obs, when non-nil, wires metrics. Every folded record joins its
	// FE's ground truth whether or not it is set.
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
	// PeakFELog is always 0: FEs keep no fetch log (each hands its
	// truth to the world's live-query table). The field stays for
	// readers of earlier summaries.
	PeakFELog int
	// ArenaCap is always 0: span trees are built only for retained
	// exemplars, in no arena. The field stays for readers of earlier
	// summaries.
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

	res FleetResult
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
		queries: corpus(0, opts.QuerySeed),
		metros:  geo.WorldMetros(),
	}
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
	n := vantage.SynthNode(r.opts.FleetSeed, idx, r.metros, vantage.CampusProfile())
	// Slot endpoints take the default TCP configuration; newClient turns
	// RecycleConns on, the free list's exact use case: a slot churns one
	// connection per arrival.
	ep, rec := r.newClient(n.Host, tcpsim.Config{})
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
	// A watermark sample closes out the world.
	r.rt.SampleMem()
	return &r.res
}

// issue runs one ephemeral client: claim a slot, dial its default FE,
// fold on completion.
func (r *FleetRunner) issue(idx int) {
	s := r.claim()
	s.rec.ResetKeep()
	s.record = r.newRecord(s.node.Host, s.fe.Host(), r.queries[idx%len(r.queries)], 0)
	r.res.Arrivals++
	r.rt.NoteFleetArrival()
	r.get(s.ep, &s.record, func(resp *httpsim.Response) { r.fold(s, resp) })
	// Without a measurer the live table holds exactly the arrivals in
	// flight.
	r.res.PeakLive = max(r.res.PeakLive, len(r.live))
}

// fold finalizes one completed arrival: complete the record (which
// joins the FE's ground truth), look the session's events up in the
// slot recorder, hand the record to the sink, then recycle everything —
// recorder lists, Record struct, slot.
func (r *FleetRunner) fold(s *fleetSlot, resp *httpsim.Response) {
	rr := &s.record
	r.complete(rr, resp)
	r.res.Completed++
	if resp.Status == 503 {
		r.res.Rejected++
	}

	// Strays from the previous tenant's close sit in lists of their own.
	rr.Events, rr.Payloads = s.rec.Session(rr.Key), s.rec.Payloads(rr.Key)

	r.opts.Sink.Consume(rr)
	r.rt.NoteRecord()
	r.rt.NoteFleetDone()

	rr.Events, rr.Payloads = nil, nil
	s.rec.ResetKeep()
	r.release(s)
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
	// Fleet configures each batch's campaign. Its Runtime, when
	// non-nil, also receives task progress from all batches. Sink and Obs
	// are set per batch from the factories below: RunFleet refuses
	// options that set either.
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
}

// RunFleet runs the ephemeral-client fleet campaign split into strided
// arrival batches, each in its own world on its own worker goroutine.
// Results, observers (nil unless Observe was set) and sinks come back
// in batch order — the canonical merge order.
func RunFleet(opts FleetShardedOptions) ([]*FleetResult, []*obs.Observer, []RecordSink, error) {
	switch {
	case opts.Fleet.Obs != nil:
		return nil, nil, nil, perBatchField("FleetShardedOptions.Fleet.Obs", "Observe")
	case opts.Fleet.Sink != nil:
		return nil, nil, nil, perBatchField("FleetShardedOptions.Fleet.Sink", "Sink")
	}
	k := opts.Batches
	if k <= 0 {
		k = DefaultNodeBatches
	}
	names := make([]string, k)
	for b := range names {
		names[b] = fmt.Sprintf("fleet[%d/%d]", b, k)
	}
	results := make([]*FleetResult, k)
	obsvs, sinks, err := runSharded(names, opts.Workers, opts.Fleet.Runtime, opts.Observe, opts.Sink,
		func(b int, o *obs.Observer, sink RecordSink) error {
			fopts := opts.Fleet
			fopts.stride, fopts.offset = k, b
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
	}
	return out
}
