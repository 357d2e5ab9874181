package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(-time.Second, func() { ran = true })
	s.Run()
	if !ran || s.Now() != 0 {
		t.Fatalf("negative delay mishandled: ran=%v now=%v", ran, s.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := New(1)
	s.Schedule(10*time.Millisecond, func() {
		s.ScheduleAt(time.Millisecond, func() {
			if s.Now() != 10*time.Millisecond {
				t.Errorf("past event ran at %v", s.Now())
			}
		})
	})
	s.Run()
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.Schedule(time.Millisecond, rec)
		}
	}
	s.Schedule(0, rec)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if s.Now() != 99*time.Millisecond {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestRunUntilStopsAndAdvances(t *testing.T) {
	s := New(1)
	var ran []int
	s.Schedule(10*time.Millisecond, func() { ran = append(ran, 1) })
	s.Schedule(50*time.Millisecond, func() { ran = append(ran, 2) })
	s.RunUntil(20 * time.Millisecond)
	if len(ran) != 1 {
		t.Fatalf("ran = %v, want only first event", ran)
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("now = %v, want 20ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.RunFor(40 * time.Millisecond)
	if len(ran) != 2 || s.Now() != 60*time.Millisecond {
		t.Fatalf("ran=%v now=%v", ran, s.Now())
	}
}

func TestStepEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(99)
		var times []Time
		for i := 0; i < 50; i++ {
			d := time.Duration(s.Rand().Int63n(int64(time.Second)))
			s.Schedule(d, func() { times = append(times, s.Now()) })
		}
		s.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClockMonotone(t *testing.T) {
	f := func(delays []int16) bool {
		s := New(7)
		prev := Time(0)
		ok := true
		for _, d := range delays {
			dd := time.Duration(d) * time.Microsecond
			s.Schedule(dd, func() {
				if s.Now() < prev {
					ok = false
				}
				prev = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcessedCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 25; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Processed != 25 {
		t.Fatalf("Processed = %d", s.Processed)
	}
	// String's pending= is Pending(): lane events count.
	s.AttachFastLane(oneEventLane{})
	if got, want := s.String(), "sim(t=24ms pending=1 processed=25)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// oneEventLane is a fast lane holding one never-due event.
type oneEventLane struct{}

func (oneEventLane) Head() (Time, uint64, bool) { return time.Hour, 0, true }
func (oneEventLane) RunHead()                   {}
func (oneEventLane) Len() int                   { return 1 }
