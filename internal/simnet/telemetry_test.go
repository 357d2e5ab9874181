package simnet

import (
	"testing"
	"time"

	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
)

// TestHeapDepthMaxOnShortRun pins the watermark export: the gauge is
// written only at Flush, so after a drained run its Max must be the
// scheduler's exactly-tracked maximum, not the final (zero) depth.
func TestHeapDepthMaxOnShortRun(t *testing.T) {
	s := New(1)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	s.SetMetrics(m)

	const pending = 10
	for i := 0; i < pending; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	m.Flush()

	if got := m.HeapDepth.Max(); got != pending {
		t.Errorf("HeapDepth.Max() = %g after Flush, want %g (exact watermark)", got, float64(pending))
	}
	if got := m.HeapDepth.Value(); got != 0 {
		t.Errorf("HeapDepth = %g after drain, want 0", got)
	}
}

// TestRuntimeHubPublication wires a telemetry hub to a simulator
// carrying a fast lane and checks wall-clock counters flow out: events
// executed, sim-time advanced, and the lane's epochs, segments and
// bytes carried since wiring.
func TestRuntimeHubPublication(t *testing.T) {
	eng := rt.NewEngine()
	s := New(1)
	lane := &countingLane{LaneCounts{Epochs: 3, Segments: 40, Bytes: 60000}} // before wiring
	s.AttachFastLane(lane)
	s.SetRuntime(eng)

	for i := 0; i < 100; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	lane.c.Epochs++
	lane.c.Segments++
	lane.c.Bytes += 1500
	s.Run()

	snap := eng.Snapshot()
	if snap.Events != 100 {
		t.Errorf("hub events = %d, want 100", snap.Events)
	}
	if snap.SimSeconds <= 0 {
		t.Errorf("hub sim seconds = %g, want > 0", snap.SimSeconds)
	}
	if snap.Fastpath.Epochs != 1 || snap.Fastpath.Segments != 1 || snap.Fastpath.Bytes == 0 {
		t.Errorf("hub fastpath = %+v", snap.Fastpath)
	}
}

// countingLane is an empty fast lane reporting set traffic totals.
type countingLane struct{ c LaneCounts }

func (*countingLane) Head() (Time, uint64, bool) { return 0, 0, false }
func (*countingLane) RunHead()                   {}
func (*countingLane) Len() int                   { return 0 }
func (l *countingLane) Carried() LaneCounts      { return l.c }
