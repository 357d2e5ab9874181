package simnet

import (
	"testing"
	"time"

	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
)

func TestFallbackReasonStrings(t *testing.T) {
	want := map[FallbackReason]string{
		FallbackTopology: "topology",
		FallbackTeardown: "teardown",
		FallbackDisabled: "disabled",
	}
	for r, s := range want {
		if got := r.String(); got != s {
			t.Errorf("FallbackReason(%d).String() = %q, want %q", r, got, s)
		}
	}
	if got := FallbackReason(200).String(); got != "unknown" {
		t.Errorf("out-of-range reason = %q, want unknown", got)
	}
}

func TestNoteFastFallbackByReason(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	n.NoteFastFallback(FallbackTopology)
	n.NoteFastFallback(FallbackTopology)
	n.NoteFastFallback(FallbackTeardown)
	n.NoteFastFallback(FallbackDisabled)

	st := n.FastPathStats()
	if st.Fallbacks != 4 {
		t.Fatalf("Fallbacks = %d, want 4", st.Fallbacks)
	}
	wantBy := [rt.NumReasons]uint64{FallbackTopology: 2, FallbackTeardown: 1, FallbackDisabled: 1}
	if st.FallbacksByReason != wantBy {
		t.Fatalf("FallbacksByReason = %v, want %v", st.FallbacksByReason, wantBy)
	}
	var sum uint64
	for _, v := range st.FallbacksByReason {
		sum += v
	}
	if sum != st.Fallbacks {
		t.Fatalf("by-reason sum %d != total %d", sum, st.Fallbacks)
	}
}

func TestExportMetricsFallbackReasons(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	n.NoteFastFallback(FallbackTeardown)
	n.NoteFastFallback(FallbackTopology)
	n.NoteFastFallback(FallbackTopology)

	reg := obs.NewRegistry()
	n.ExportMetrics(reg)

	byReason := reg.GaugeVec("fastpath_fallbacks_by_reason",
		"epochs abandoned back to the packet path, by refusal reason (snapshot)", "reason")
	checks := map[string]float64{"teardown": 1, "topology": 2, "disabled": 0}
	for label, want := range checks {
		if got := byReason.With(label).Value(); got != want {
			t.Errorf("fastpath_fallbacks_by_reason{reason=%q} = %g, want %g", label, got, want)
		}
	}
	if got := reg.Gauge("fastpath_fallbacks", "epochs abandoned back to the packet path (snapshot)").Value(); got != 3 {
		t.Errorf("fastpath_fallbacks = %g, want 3", got)
	}
}

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

// TestRuntimeHubPublication wires a telemetry hub to a simulator and a
// network and checks wall-clock counters flow out: events executed,
// sim-time advanced, fast-path counters by reason.
func TestRuntimeHubPublication(t *testing.T) {
	eng := rt.NewEngine()
	s := New(1)
	s.SetRuntime(eng)
	n := NewNetwork(s)
	n.SetRuntime(eng)

	for i := 0; i < 100; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	n.SetPath("a", "b", PathParams{Delay: time.Millisecond})
	h := n.FastPath("a", "b")
	if !h.Valid() {
		t.Fatal("loss-free path refused a fast-path handle")
	}
	n.NoteFastEpoch()
	h.Transmit(1460)
	n.NoteFastFallback(FallbackTeardown)
	n.ExportMetrics(obs.NewRegistry()) // flushes the hub alongside the export

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
	if snap.Fastpath.Fallbacks != 1 || snap.Fastpath.ByReason["teardown"] != 1 {
		t.Errorf("hub fallbacks = %d by-reason %v", snap.Fastpath.Fallbacks, snap.Fastpath.ByReason)
	}
}
