package emulator

import (
	"fmt"

	"fesplit/internal/cdn"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/shard"
)

// DefaultNodeBatches is the number of node batches a sharded
// Experiment-A campaign splits the fleet into when the caller does not
// choose. Four keeps per-batch worlds large enough that FE load still
// comes from dozens of concurrent vantages at paper scale, while giving
// a typical multi-core machine real parallelism to chew on.
const DefaultNodeBatches = 4

// ShardedAOptions parameterize RunShardedA.
//
// The shard layout — how many batches, which nodes land in which batch,
// and every seed — is a pure function of these options. The one knob
// that is NOT part of the layout is Workers: it only schedules the
// batches, so any worker count produces byte-identical output.
type ShardedAOptions struct {
	// SimSeed is the base simulator seed; batch b runs on
	// shard.Mix(SimSeed, b), so batch event streams are independent yet
	// reproducible.
	SimSeed int64
	// Deployment is the service under test, shared verbatim by every
	// batch: all batches see the same FE/BE placement, so a node's
	// default FE is the same in its batch world as in a monolithic run.
	Deployment cdn.Config
	// Runner configures each batch's world. Nodes is the FULL fleet
	// size — every batch builds the whole fleet (placement must match
	// across batches) and drives only its own node range.
	Runner Options
	// A parameterizes the campaign each batch runs over its node range.
	A AOptions
	// Batches is the number of contiguous node batches (≤ 0 →
	// DefaultNodeBatches, clamped to the fleet size). Changing it
	// changes the (still deterministic) results: batches are
	// independent worlds, so cross-batch FE load interactions differ.
	Batches int
	// Workers caps the goroutines running batches (0 → NumCPU).
	Workers int
	// Observe, when non-nil, is called once per batch — from that
	// batch's worker goroutine, before its world is built — and must
	// return a fresh Observer private to the batch (a shared registry
	// would race). RunShardedA returns the observers in batch order for
	// the caller to merge canonically.
	Observe func(batch int) *obs.Observer
	// Sink is called once per batch (from the batch's worker goroutine,
	// after Observe, whose observer it receives — nil without Observe)
	// and must return a fresh RecordSink private to the batch; required.
	// Each finished batch feeds its records into its sink in simulation
	// order and then drops the batch dataset, so memory stays bounded by
	// one batch world instead of the full record count. The sinks come
	// back in batch order: merging the per-batch accumulators in that
	// order is equivalent to offering every record serially. A sink that
	// is also a Measurer measures its batch's records (Options.Measure);
	// Runner.Measure, which batches would share, is ignored.
	Sink func(batch int, o *obs.Observer) RecordSink
	// Runtime, when non-nil, receives engine telemetry: batch task
	// progress, streamed-record counts and heap watermark samples. Pure
	// observation — results are byte-identical with or without it.
	Runtime *rt.Engine
}

// RunShardedA runs Experiment A split into contiguous node batches,
// each in its own simulated world on its own worker goroutine, folding
// every batch's records into its sink. It is the fleet-scale form of
// Runner.RunExperimentA: same campaign shape, wall-clock divided by the
// worker count instead of growing linearly with fleet size, and live
// heap bounded by one batch world.
//
// Observers (nil unless Observe was set) and sinks come back in batch
// order — the canonical merge order.
func RunShardedA(opts ShardedAOptions) ([]*obs.Observer, []RecordSink, error) {
	n := opts.Runner.withDefaults().Nodes
	k := opts.Batches
	if k <= 0 {
		k = DefaultNodeBatches
	}
	batches := shard.NodeBatches(n, k)
	if len(batches) == 0 {
		return nil, nil, fmt.Errorf("emulator: sharded A with no nodes")
	}
	names := make([]string, len(batches))
	for i, b := range batches {
		names[i] = fmt.Sprintf("nodes[%d:%d]", b.Lo, b.Hi)
	}
	return runSharded(names, opts.Workers, opts.Runtime, opts.Observe, opts.Sink,
		func(i int, o *obs.Observer, sink RecordSink) error {
			b := batches[i]
			ropts := opts.Runner
			ropts.Runtime = opts.Runtime
			ropts.Obs = o
			ropts.Measure, _ = sink.(Measurer)
			r, err := New(shard.Mix(opts.SimSeed, uint64(b.Index)), opts.Deployment, ropts)
			if err != nil {
				return err
			}
			// The batch world (and its traces) dies with this closure, so
			// the campaign's live heap is one batch, not the whole fleet's
			// record history.
			ds := r.runExperimentARange(opts.A, b.Lo, b.Hi)
			for j := range ds.Records {
				sink.Consume(&ds.Records[j])
				opts.Runtime.NoteRecord()
			}
			return nil
		})
}

// runSharded is the sharding wrapper behind RunShardedA and RunFleet:
// one task per named batch, each building its private observer and sink
// on its own worker goroutine and then running its world. It returns
// the observers (nil unless observe was set) and sinks in batch order.
func runSharded(names []string, workers int, rtm *rt.Engine,
	observe func(batch int) *obs.Observer,
	sink func(batch int, o *obs.Observer) RecordSink,
	world func(batch int, o *obs.Observer, sink RecordSink) error,
) ([]*obs.Observer, []RecordSink, error) {
	if sink == nil {
		return nil, nil, fmt.Errorf("emulator: sharded campaign requires a sink factory")
	}
	obsvs := make([]*obs.Observer, len(names))
	sinks := make([]RecordSink, len(names))
	tasks := make([]shard.Task, len(names))
	for i, name := range names {
		i := i
		tasks[i] = shard.Task{Name: name, Run: func() error {
			if observe != nil {
				obsvs[i] = observe(i)
			}
			sinks[i] = sink(i, obsvs[i])
			return world(i, obsvs[i], sinks[i])
		}}
	}
	var p shard.Progress
	if rtm != nil {
		rtm.AddTasks(len(tasks))
		p = rtm
	}
	if err := shard.RunProgress(workers, tasks, p); err != nil {
		return nil, nil, err
	}
	rtm.SampleMem()
	if observe == nil {
		obsvs = nil
	}
	return obsvs, sinks, nil
}
