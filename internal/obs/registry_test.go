package obs

import (
	"strings"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	sk := r.Sketch("s", "", 0)
	cv := r.CounterVec("cv", "", "l")
	gv := r.GaugeVec("gv", "", "l")
	sv := r.SketchVec("sv", "", 0, "l")

	c.Inc()
	c.Add(3)
	g.Set(5)
	g.Add(-1)
	sk.Observe(0.01)
	cv.With("x").Inc()
	gv.With("x").Set(2)
	sv.With("x").Observe(1)

	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || sk.Count() != 0 || sk.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if fams := r.Families(); fams != nil {
		t.Fatalf("nil registry families = %v, want nil", fams)
	}
	var tr *Tracer
	tr.Add(&Span{Name: "x"})
	if tr.Len() != 0 || tr.Roots() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var o *Observer
	if o.Registry() != nil || o.TailSampler() != nil {
		t.Fatal("nil observer must hand out nil components")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("packets_total", "packets")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters never decrease
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if again := r.Counter("packets_total", "packets"); again != c {
		t.Fatal("re-registration must return the same instrument")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(4)
	g.Add(3)
	g.Add(-6)
	if g.Value() != 1 || g.Max() != 7 {
		t.Fatalf("gauge = (%v max %v), want (1 max 7)", g.Value(), g.Max())
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("path_sent", "per-path packets", "from", "to")
	v.With("a", "b").Add(2)
	v.With("a", "b").Inc()
	v.With("b", "a").Inc()
	if got := v.With("a", "b").Value(); got != 3 {
		t.Fatalf("child a→b = %v, want 3", got)
	}
	fams := r.Families()
	if len(fams) != 1 || len(fams[0].Series()) != 2 {
		t.Fatalf("want 1 family with 2 series, got %+v", fams)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("m", "")
}

// TestRegistrationPanicNamesBothSites pins the duplicate-registration
// diagnostic: the panic must name the first registration site and the
// conflicting one, so the two call sites can actually be found.
func TestRegistrationPanicNamesBothSites(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "original help") // first site
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("help-text mismatch must panic")
		}
		msg, ok := p.(string)
		if !ok {
			t.Fatalf("panic payload %T, want string", p)
		}
		if !strings.Contains(msg, "registry_test.go") {
			t.Errorf("panic does not name the registration sites: %s", msg)
		}
		if !strings.Contains(msg, "first registered at") || !strings.Contains(msg, "re-registered at") {
			t.Errorf("panic does not carry both sites: %s", msg)
		}
		if !strings.Contains(msg, "dup_total") {
			t.Errorf("panic does not name the metric: %s", msg)
		}
	}()
	r.Counter("dup_total", "different help") // conflicting site
}

func TestIdenticalReRegistrationIsFine(t *testing.T) {
	r := NewRegistry()
	g1 := r.Gauge("g_depth", "help")
	g2 := r.Gauge("g_depth", "help")
	if g1 != g2 {
		t.Fatal("identical re-registration must return the same instrument")
	}
	s1 := r.SketchVec("s_seconds", "help", 0.02, "fe")
	s2 := r.SketchVec("s_seconds", "help", 0.02, "fe")
	if s1.With("x") != s2.With("x") {
		t.Fatal("identical sketch re-registration must share children")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("alpha mismatch must panic")
		}
	}()
	r.SketchVec("s_seconds", "help", 0.05, "fe")
}

func TestSketchInstrument(t *testing.T) {
	r := NewRegistry()
	sk := r.Sketch("fetch_q", "fetch quantiles", 0.01)
	for i := 1; i <= 1000; i++ {
		sk.Observe(float64(i))
	}
	if sk.Count() != 1000 {
		t.Fatalf("count = %d", sk.Count())
	}
	p50 := sk.Quantile(0.5)
	if p50 < 495 || p50 > 506 {
		t.Fatalf("p50 = %v, want ~500 within 1%%", p50)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE fetch_q summary",
		`fetch_q{quantile="0.5"}`,
		`fetch_q{quantile="0.99"}`,
		"fetch_q_sum 500500",
		"fetch_q_count 1000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestCardinalityBound(t *testing.T) {
	r := NewRegistry()
	v := r.SketchVec("per_node_seconds", "per-vantage delay", 0, "vantage").Bounded(4)
	for i := 0; i < 10; i++ {
		v.With(string(rune('a' + i))).Observe(1)
	}
	f := r.Families()[0]
	series := f.Series()
	if len(series) != 5 { // 4 real + 1 overflow
		t.Fatalf("got %d series, want 4 + overflow", len(series))
	}
	var overflow *Sketch
	for _, s := range series {
		if s.LabelValues[0] == OverflowLabel {
			overflow = s.Sketch
		}
	}
	if overflow == nil {
		t.Fatal("no overflow series created")
	}
	if overflow.Count() != 6 {
		t.Fatalf("overflow absorbed %v samples, want 6", overflow.Count())
	}
	// Existing children keep resolving to themselves past the cap.
	if v.With("a").Count() != 1 {
		t.Fatal("pre-cap child lost its identity")
	}
	// New children keep collapsing deterministically.
	if v.With("zz"); overflow.Count() != 6 {
		t.Fatal("With alone must not observe")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_total", "events executed").Add(42)
	r.GaugeVec("fe_concurrency", "busy workers", "fe").With(`ed"ge\1`).Set(3)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sim_events_total counter\nsim_events_total 42\n",
		"# TYPE fe_concurrency gauge\n" + `fe_concurrency{fe="ed\"ge\\1"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must appear in sorted order.
	if strings.Index(out, "fe_concurrency") > strings.Index(out, "sim_events_total") {
		t.Error("families not sorted by name")
	}
}
