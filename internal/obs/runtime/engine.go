// Package runtime is the engine's own observability layer — telemetry
// about the simulator process, not the simulated world. The obs
// registry (the sibling package) records what happens inside the
// deterministic simulation in virtual time; this package records what
// the engine is doing in wall time while it computes that simulation:
// events dispatched per second, heap in-use and GC pauses, study-cell
// progress across the worker pool, fast-lane activity, and the heap
// watermark that proves the streaming record path keeps memory
// bounded.
//
// The split is deliberate and load-bearing: nothing in this package
// may ever feed back into the deterministic exports. Wall-clock
// readings live only in heartbeat lines, runtime.jsonl snapshots and
// the HTTP endpoint; golden CSVs, metrics.jsonl and the HTML report
// are byte-identical with telemetry on or off.
//
// The hub is Engine: a set of atomic counters the hot subsystems flush
// deltas into (batched, allocation-free — the zero-alloc gates on the
// scheduler and packet-send benchmarks still hold with an engine
// wired). A wall-clock Sampler periodically turns the hub plus Go
// runtime statistics into Snapshots and hands them to consumers: the
// stderr heartbeat, the JSONL log, and the HTTP /progress endpoint.
package runtime

import (
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is the telemetry hub one study run shares across all of its
// concurrent simulated worlds. Subsystems publish with batched atomic
// adds (safe from any goroutine, no allocation); the Sampler and the
// HTTP endpoint read with Snapshot. All mutating methods are no-ops on
// a nil receiver, so wiring is pay-as-you-go: an unwired engine costs
// one pointer compare at each publish site.
//
// memSampleEvery bounds the cost of heap-watermark tracking: streaming
// record sinks call NoteRecord per record, and only every
// memSampleEvery-th call pays the ReadMemStats.
type Engine struct {
	start time.Time

	events   atomic.Uint64 // simulator events executed, all worlds
	simNanos atomic.Int64  // virtual time advanced, summed over worlds

	heapDepthMax  atomic.Int64  // deepest event heap seen in any world
	heapWatermark atomic.Uint64 // highest HeapAlloc observed (bytes)

	fastEpochs atomic.Uint64
	fastSegs   atomic.Uint64
	fastBytes  atomic.Uint64

	records atomic.Uint64 // records folded through streaming sinks

	// Fleet-campaign gauges (internal/emulator RunFleet): pooled slot
	// objects created, ephemeral-client arrivals issued, arrivals in
	// flight, and slots sitting in the free pools — summed over all
	// batch worlds.
	fleetSlots    atomic.Int64
	fleetArrivals atomic.Uint64
	fleetLive     atomic.Int64
	fleetPooled   atomic.Int64

	mu         sync.Mutex
	tasksTotal int
	tasksDone  int
	running    map[string]int // in-flight task name → multiplicity
}

// memSampleEvery is the NoteRecord decimation: one ReadMemStats per
// this many streamed records.
const memSampleEvery = 256

// NewEngine returns an empty hub; its wall clock starts now.
func NewEngine() *Engine {
	return &Engine{start: time.Now(), running: make(map[string]int)}
}

// AddEvents publishes a batch of executed simulator events.
func (e *Engine) AddEvents(n uint64) {
	if e != nil {
		e.events.Add(n)
	}
}

// AddSimTime publishes a batch of advanced virtual time (nanoseconds).
func (e *Engine) AddSimTime(d int64) {
	if e != nil && d > 0 {
		e.simNanos.Add(d)
	}
}

// NoteHeapDepth raises the event-heap depth watermark.
func (e *Engine) NoteHeapDepth(d int64) {
	if e == nil {
		return
	}
	for {
		cur := e.heapDepthMax.Load()
		if d <= cur || e.heapDepthMax.CompareAndSwap(cur, d) {
			return
		}
	}
}

// AddFastpath publishes fast-lane activity deltas: epochs entered and
// heap-bypassing segments and their wire bytes.
func (e *Engine) AddFastpath(epochs, segs, bytes uint64) {
	if e == nil {
		return
	}
	e.fastEpochs.Add(epochs)
	e.fastSegs.Add(segs)
	e.fastBytes.Add(bytes)
}

// NoteRecord counts one record folded through a streaming sink, and
// every memSampleEvery records refreshes the heap watermark.
func (e *Engine) NoteRecord() {
	if e == nil {
		return
	}
	if e.records.Add(1)%memSampleEvery == 0 {
		e.SampleMem()
	}
}

// NoteFleetSlot counts one pooled vantage slot object created by a
// fleet campaign (slots are created on concurrency demand and then
// recycled, so this is also the campaign's peak-concurrency witness).
func (e *Engine) NoteFleetSlot() {
	if e != nil {
		e.fleetSlots.Add(1)
	}
}

// NoteFleetArrival counts one ephemeral-client arrival entering flight.
func (e *Engine) NoteFleetArrival() {
	if e == nil {
		return
	}
	e.fleetArrivals.Add(1)
	e.fleetLive.Add(1)
}

// NoteFleetDone marks one arrival's query completed and folded.
func (e *Engine) NoteFleetDone() {
	if e != nil {
		e.fleetLive.Add(-1)
	}
}

// AddFleetPooled adjusts the free-slot gauge (+1 on release, -1 on
// claim of a pooled slot).
func (e *Engine) AddFleetPooled(delta int64) {
	if e != nil {
		e.fleetPooled.Add(delta)
	}
}

// SampleMem reads the Go heap and raises the watermark; it returns the
// current HeapAlloc (0 on a nil engine). Costs one ReadMemStats — call
// it at world boundaries or on a decimated cadence, never per event.
func (e *Engine) SampleMem() uint64 {
	if e == nil {
		return 0
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	e.raiseWatermark(ms.HeapAlloc)
	return ms.HeapAlloc
}

// raiseWatermark lifts the heap watermark to at least v.
func (e *Engine) raiseWatermark(v uint64) {
	for {
		cur := e.heapWatermark.Load()
		if v <= cur || e.heapWatermark.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HeapWatermark returns the highest HeapAlloc observed so far (bytes).
func (e *Engine) HeapWatermark() uint64 {
	if e == nil {
		return 0
	}
	return e.heapWatermark.Load()
}

// Records returns how many records streaming sinks have folded.
func (e *Engine) Records() uint64 {
	if e == nil {
		return 0
	}
	return e.records.Load()
}

// AddTasks grows the task-pool denominator: call it with the task list
// size when launching a pool. Nested pools (study cells spawning node
// batches) add as they are discovered, so done/total both grow while a
// study runs.
func (e *Engine) AddTasks(n int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.tasksTotal += n
	e.mu.Unlock()
}

// TaskStarted marks a pool task in flight (shard.Progress).
func (e *Engine) TaskStarted(name string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.running[name]++
	e.mu.Unlock()
}

// TaskDone marks a pool task complete (shard.Progress).
func (e *Engine) TaskDone(name string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.tasksDone++
	if e.running[name] > 1 {
		e.running[name]--
	} else {
		delete(e.running, name)
	}
	e.mu.Unlock()
}

// tasks returns (done, total, sorted in-flight names).
func (e *Engine) tasks() (done, total int, running []string) {
	e.mu.Lock()
	done, total = e.tasksDone, e.tasksTotal
	running = make([]string, 0, len(e.running))
	for name := range e.running {
		running = append(running, name)
	}
	e.mu.Unlock()
	sort.Strings(running)
	return done, total, running
}
