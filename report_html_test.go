package fesplit

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fesplit/internal/obs"
)

// sampleReport builds a small hand-rolled report exercising every HTML
// section without running the (slow) full study.
func sampleReport() *Report {
	return &Report{
		Config: StudyConfig{Seed: 7, Nodes: 4},
		Fig5: []*Fig5Data{{
			Service: "google-like", FixedFE: "google-fe-lenoir",
			Nodes: []NodeSummary{
				{Node: "n1", RTT: 12 * time.Millisecond, MedStatic: 30 * time.Millisecond,
					MedDynamic: 150 * time.Millisecond, MedDelta: 90 * time.Millisecond},
				{Node: "n2", RTT: 80 * time.Millisecond, MedStatic: 90 * time.Millisecond,
					MedDynamic: 200 * time.Millisecond, MedDelta: 10 * time.Millisecond},
			},
			BoundLoMS: 10, TruthMS: 80, BoundHiMS: 150, BoundsOK: true,
			ThresholdMS: 75, HasThresh: true,
		}},
		Fig6: []*Fig6Data{
			{Service: "google-like", RTTsMS: []float64{8, 20, 45, 90}, FracUnder20ms: 0.25},
			{Service: `bing<&>"like"`, RTTsMS: []float64{5, 9, 14, 30}, FracUnder20ms: 0.75},
		},
		Fig7: []*Fig7Data{{
			Service: "google-like",
			Nodes: []NodeSummary{
				{Node: "n1", RTT: 10 * time.Millisecond, MedStatic: 25 * time.Millisecond,
					MedDynamic: 120 * time.Millisecond},
			},
			MedStaticMS: 25, MedDynamicMS: 120, IQRStaticMS: 4, IQRDynMS: 30,
		}},
		Fig8: []*Fig8Data{{
			Service: "google-like",
			Nodes:   []string{"n1", "n2"},
			Boxes: []BoxPlot{
				{Min: 100, Q1: 120, Median: 140, Q3: 170, Max: 260, WhiskerLow: 100, WhiskerHigh: 240},
				{Min: 90, Q1: 110, Median: 130, Q3: 150, Max: 200, WhiskerLow: 90, WhiskerHigh: 200},
			},
			MedOverallMS: 135, SpreadMS: 45,
		}},
	}
}

func sampleObs() (*MetricsRegistry, []Exemplar) {
	o := obs.NewTailObserver(obs.TailConfig{Percentile: 0.5, MaxExemplars: 4})
	reg := o.Registry()
	reg.Counter("sim_events_total", "events").Add(999)
	reg.Gauge("fastpath_epochs", "epochs").Set(12)
	reg.Gauge("fastpath_bytes", "bytes").Set(3.5e6)
	reg.Gauge("fastpath_fallbacks", "fallbacks").Set(2)
	reg.GaugeVec("fastpath_fallbacks_by_reason", "by reason", "reason").With("teardown").Set(2)
	sk := reg.SketchVec("session_param_seconds", "params", 0.01, "service", "phase").
		With("google-like", "tdynamic")
	for i := 1; i <= 100; i++ {
		sk.Observe(float64(i) / 100)
	}
	ts := o.TailSampler()
	for i := 0; i < 10; i++ {
		root := &Span{Name: "query", Track: "client",
			Start: time.Duration(i) * time.Second,
			End:   time.Duration(i)*time.Second + 200*time.Millisecond}
		root.Child("handshake", root.Start, root.Start+40*time.Millisecond)
		fe := root.Child("fe-fetch", root.Start+50*time.Millisecond, root.Start+180*time.Millisecond)
		fe.Track = "frontend"
		ts.OfferTransient(0.1+float64(i)*0.01, i == 3, root)
	}
	return reg, ts.Select()
}

func TestWriteHTMLDeterministicAndComplete(t *testing.T) {
	rep := sampleReport()
	reg, ex := sampleObs()
	render := func() []byte {
		var b bytes.Buffer
		if err := rep.WriteHTML(&b, reg, ex); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("WriteHTML is not deterministic")
	}
	out := string(a)
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Figure 6",
		"Figure 5",
		"Figure 7",
		"Figure 8",
		"Metric quantiles",
		"session_param_seconds",
		"service=google-like, phase=tdynamic",
		"Counters",
		"sim_events_total",
		"Fast-forward engine",
		"fastpath_bytes",
		"Tail exemplars",
		"bound violation",
		"<svg",
		"bing&lt;&amp;&gt;&quot;like&quot;", // service names are escaped
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if strings.Contains(out, `bing<&>`) {
		t.Error("unescaped service name leaked into HTML")
	}
	// Violation exemplar must always render even with a tight cap.
	if got := strings.Count(out, `<p class="violation">`); got != 1 {
		t.Errorf("%d violation badges, want 1", got)
	}
}

func TestFastPathUsageFrom(t *testing.T) {
	reg, _ := sampleObs()
	u, ok := FastPathUsageFrom(reg)
	if !ok {
		t.Fatal("FastPathUsageFrom found no gauges in a registry that has them")
	}
	if want := (FastPathUsage{Epochs: 12, Bytes: 3.5e6, Fallbacks: 2, FallbackTeardown: 2}); u != want {
		t.Fatalf("usage = %+v, want %+v", u, want)
	}
	if _, ok := FastPathUsageFrom(nil); ok {
		t.Error("nil registry reported fast-path gauges")
	}
	empty := obs.NewRegistry()
	if _, ok := FastPathUsageFrom(empty); ok {
		t.Error("empty registry reported fast-path gauges")
	}
}

func TestWriteHTMLEmptyReport(t *testing.T) {
	var b bytes.Buffer
	if err := (&Report{}).WriteHTML(&b, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "<!DOCTYPE html>") || !strings.Contains(out, "</html>") {
		t.Fatal("empty report did not render a complete page")
	}
	if strings.Contains(out, "Figure") {
		t.Error("empty report rendered figure sections")
	}
}
