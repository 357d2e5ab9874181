// Package shard is the deterministic work-partitioning layer behind
// the parallel study runner. It answers three questions any sharded
// campaign must settle before it can promise reproducible output:
//
//   - How does a shard get its randomness? Per-shard seeds derive from
//     the top-level seed through a SplitMix64-style mixer — never the
//     wall clock, never the global rand source — so shard i's stream is
//     a pure function of (root seed, i).
//   - Who runs which shard? A fixed task list is claimed from an atomic
//     queue by up to W workers. The task list — the shard layout — is a
//     function of the configuration only, never of W, so the worker
//     count changes wall-clock time and nothing else.
//   - What order do results land in? Every task writes only its own
//     pre-allocated slot; callers merge the slots in canonical (task
//     index) order after Run returns. Errors follow the same contract:
//     Run reports the error of the lowest-indexed failed task, so even
//     failures are identical for one worker and for many.
//
// The package deliberately knows nothing about studies, simulators or
// metrics: it moves closures and integers. The merge side of the
// contract (registries, sketches, tail exemplars, datasets) lives with
// the types being merged — see internal/obs and internal/emulator.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Mix derives the seed for shard index idx from a root seed with a
// SplitMix64-style finalizer: statistically independent streams for
// adjacent indices, bit-identical across runs, platforms and worker
// counts. idx participates through the golden-gamma increment, so
// (seed, 0) and (seed+1, 0) also land far apart.
func Mix(seed int64, idx uint64) int64 {
	z := uint64(seed) + (idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Task is one independent cell of a sharded campaign. Run must confine
// its side effects to state owned by this task (its result slot, its
// own simulator, its own registry); the pool provides no other
// isolation.
type Task struct {
	// Name labels the task in errors ("fig5/bing-like").
	Name string
	// Run executes the cell. A panic inside Run is recovered and
	// reported as this task's error, never as a crashed worker.
	Run func() error
}

// Workers resolves a requested worker count against a task-list size:
// 0 means runtime.NumCPU, and the result is capped at n (one worker
// per task is the useful maximum) and floored at 1. Negative requests
// are the caller's validation problem; Workers floors them too so the
// pool itself can never stall.
func Workers(requested, n int) int {
	w := requested
	if w == 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Progress receives task lifecycle notifications from a running pool:
// Started when a worker claims a task, Done when it finishes (in
// either order across tasks — workers race). Implementations must be
// safe for concurrent use; the pool never blocks on them. Progress is
// pure telemetry: it observes scheduling, it cannot influence it, so a
// pool with a Progress attached produces byte-identical results to one
// without.
type Progress interface {
	TaskStarted(name string)
	TaskDone(name string)
}

// RunProgress executes every task on up to workers goroutines (resolved
// via Workers), delivering task lifecycle notifications to p (nil p:
// none), and returns the canonical first error: the error of the
// failed task with the lowest index, wrapped with the task's name. All
// tasks run to completion even when an early one fails — partial
// execution would make the set of side effects depend on scheduling.
// Panics inside tasks are recovered into errors, so one broken shard
// cannot take down the process.
func RunProgress(workers int, tasks []Task, p Progress) error {
	if len(tasks) == 0 {
		return nil
	}
	w := Workers(workers, len(tasks))
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(tasks) {
					return
				}
				if p != nil {
					p.TaskStarted(tasks[idx].Name)
				}
				errs[idx] = runTask(&tasks[idx])
				if p != nil {
					p.TaskDone(tasks[idx].Name)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", tasks[i].Name, err)
		}
	}
	return nil
}

// runTask executes one task with panic containment.
func runTask(t *Task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return t.Run()
}

// Batch is one contiguous node range of a partitioned fleet.
type Batch struct {
	// Index is the batch's canonical position; merges walk batches in
	// Index order.
	Index int
	// Lo and Hi bound the half-open node-index range [Lo, Hi).
	Lo, Hi int
}

// NodeBatches splits n nodes into k contiguous batches whose sizes
// differ by at most one (the first n%k batches hold the extra node).
// k is clamped to [1, n]; n ≤ 0 yields no batches. The layout is a
// pure function of (n, k) — worker counts never enter — which is what
// lets a batched campaign merge back deterministically.
func NodeBatches(n, k int) []Batch {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Batch, k)
	base, extra := n/k, n%k
	lo := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Batch{Index: i, Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}
