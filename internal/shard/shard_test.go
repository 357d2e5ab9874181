package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMixDeterministicAndDistinct(t *testing.T) {
	seen := map[int64][2]uint64{}
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for idx := uint64(0); idx < 64; idx++ {
			a := Mix(seed, idx)
			if b := Mix(seed, idx); a != b {
				t.Fatalf("Mix(%d,%d) not deterministic: %d vs %d", seed, idx, a, b)
			}
			if prev, dup := seen[a]; dup {
				t.Fatalf("Mix collision: (%d,%d) and (%d,%d) both map to %d",
					seed, idx, int64(prev[0]), prev[1], a)
			}
			seen[a] = [2]uint64{uint64(seed), idx}
		}
	}
}

func TestMixAdjacentSeedsDiverge(t *testing.T) {
	// (seed, 0) and (seed+1, 0) must not collide: idx participates via
	// the golden-gamma increment, so the streams land far apart.
	if Mix(5, 0) == Mix(6, 0) {
		t.Fatal("adjacent seeds collide at idx 0")
	}
}

func TestNodeBatchesPartition(t *testing.T) {
	tests := []struct {
		n, k    int
		batches int
	}{
		{10, 4, 4},
		{10, 1, 1},
		{10, 10, 10},
		{10, 99, 10}, // k clamps to n
		{10, 0, 1},   // k clamps to 1
		{10, -3, 1},
		{1, 4, 1},
		{0, 4, 0}, // no nodes → no batches
		{-5, 4, 0},
	}
	for _, tt := range tests {
		bs := NodeBatches(tt.n, tt.k)
		if len(bs) != tt.batches {
			t.Errorf("NodeBatches(%d,%d): got %d batches, want %d", tt.n, tt.k, len(bs), tt.batches)
			continue
		}
		// The batches must tile [0, n) contiguously with sizes within 1.
		lo, minLen, maxLen := 0, tt.n+1, 0
		for i, b := range bs {
			if b.Index != i {
				t.Errorf("NodeBatches(%d,%d)[%d]: Index %d", tt.n, tt.k, i, b.Index)
			}
			if b.Lo != lo {
				t.Errorf("NodeBatches(%d,%d)[%d]: gap, Lo %d want %d", tt.n, tt.k, i, b.Lo, lo)
			}
			n := b.Hi - b.Lo
			if n < 1 {
				t.Errorf("NodeBatches(%d,%d)[%d]: empty batch", tt.n, tt.k, i)
			}
			minLen, maxLen = min(minLen, n), max(maxLen, n)
			lo = b.Hi
		}
		if len(bs) > 0 {
			if lo != tt.n {
				t.Errorf("NodeBatches(%d,%d): covers [0,%d), want [0,%d)", tt.n, tt.k, lo, tt.n)
			}
			if maxLen-minLen > 1 {
				t.Errorf("NodeBatches(%d,%d): sizes differ by %d", tt.n, tt.k, maxLen-minLen)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	tests := []struct {
		requested, n, want int
	}{
		{1, 10, 1},
		{4, 10, 4},
		{99, 10, 10}, // capped at task count
		{0, 10, min(runtime.NumCPU(), 10)},
		{-3, 10, 1}, // floored
		{4, 0, 1},
	}
	for _, tt := range tests {
		if got := Workers(tt.requested, tt.n); got != tt.want {
			t.Errorf("Workers(%d,%d) = %d, want %d", tt.requested, tt.n, got, tt.want)
		}
	}
}

func TestRunExecutesEveryTask(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 40
		var done [n]atomic.Int64
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{Name: fmt.Sprintf("t%d", i), Run: func() error {
				done[i].Add(1)
				return nil
			}}
		}
		if err := RunProgress(workers, tasks, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if c := done[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunReportsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	tasks := []Task{
		{Name: "ok", Run: func() error { ran.Add(1); return nil }},
		{Name: "first-bad", Run: func() error { ran.Add(1); return sentinel }},
		{Name: "second-bad", Run: func() error { ran.Add(1); return errors.New("later") }},
		{Name: "tail", Run: func() error { ran.Add(1); return nil }},
	}
	// Whatever the scheduling, the canonical (lowest-index) error wins
	// and every task still runs.
	for _, workers := range []int{1, 4} {
		ran.Store(0)
		err := RunProgress(workers, tasks, nil)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got %v, want wrapped sentinel", workers, err)
		}
		if want := "first-bad: boom"; err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err.Error(), want)
		}
		if ran.Load() != int64(len(tasks)) {
			t.Fatalf("workers=%d: only %d/%d tasks ran after failure", workers, ran.Load(), len(tasks))
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	tasks := []Task{
		{Name: "fine", Run: func() error { return nil }},
		{Name: "explodes", Run: func() error { panic("kaboom") }},
	}
	err := RunProgress(2, tasks, nil)
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	if want := "explodes: panic: kaboom"; err.Error() != want {
		t.Fatalf("error %q, want %q", err.Error(), want)
	}
}

func TestRunEmptyTaskList(t *testing.T) {
	if err := RunProgress(4, nil, nil); err != nil {
		t.Fatalf("empty task list: %v", err)
	}
}

// progressLog records pool lifecycle notifications; safe for the
// concurrent delivery RunProgress promises to tolerate.
type progressLog struct {
	mu      sync.Mutex
	started []string
	done    []string
}

func (p *progressLog) TaskStarted(name string) {
	p.mu.Lock()
	p.started = append(p.started, name)
	p.mu.Unlock()
}

func (p *progressLog) TaskDone(name string) {
	p.mu.Lock()
	p.done = append(p.done, name)
	p.mu.Unlock()
}

// TestRunProgressNotifications checks every task produces exactly one
// Started and one Done notification, and that attaching a Progress
// changes nothing about the pool's results.
func TestRunProgressNotifications(t *testing.T) {
	const n = 17
	run := func(p Progress) ([]int32, error) {
		results := make([]int32, n)
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{Name: fmt.Sprintf("task-%02d", i), Run: func() error {
				atomic.AddInt32(&results[i], int32(i)+1)
				return nil
			}}
		}
		err := RunProgress(4, tasks, p)
		return results, err
	}

	p := &progressLog{}
	withP, err := run(p)
	if err != nil {
		t.Fatal(err)
	}
	without, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range withP {
		if withP[i] != without[i] {
			t.Fatalf("slot %d differs with progress attached: %d vs %d", i, withP[i], without[i])
		}
	}
	if len(p.started) != n || len(p.done) != n {
		t.Fatalf("notifications: %d started, %d done, want %d each", len(p.started), len(p.done), n)
	}
	seen := map[string]bool{}
	for _, name := range p.done {
		if seen[name] {
			t.Fatalf("task %s reported done twice", name)
		}
		seen[name] = true
	}
}

// TestRunProgressNotifiesFailedTasks checks Done fires even for tasks
// that error or panic — a stuck progress display would otherwise
// undercount on failing campaigns.
func TestRunProgressNotifiesFailedTasks(t *testing.T) {
	p := &progressLog{}
	tasks := []Task{
		{Name: "ok", Run: func() error { return nil }},
		{Name: "err", Run: func() error { return errors.New("boom") }},
		{Name: "panic", Run: func() error { panic("pow") }},
	}
	if err := RunProgress(2, tasks, p); err == nil {
		t.Fatal("pool swallowed the task error")
	}
	if len(p.done) != len(tasks) {
		t.Fatalf("done notifications = %d, want %d (must fire for failed tasks too)", len(p.done), len(tasks))
	}
}
