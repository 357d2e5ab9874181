package fesplit

import (
	"math"
	"strings"
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/obs"
	"fesplit/internal/obs/critpath"
)

// feedCritRegistry builds a registry carrying synthetic critical-path
// attributions for one service, with slow scaling the BE-processing
// phase (the injected-regression shape the diff gate must catch).
func feedCritRegistry(t *testing.T, service string, slow float64) *MetricsRegistry {
	t.Helper()
	reg := obs.NewRegistry()
	co := analysis.NewCritObserver(reg, service)
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	for i := 0; i < 200; i++ {
		var a critpath.Attribution
		a.Phases[critpath.PhaseHandshake] = ms(40)
		a.Phases[critpath.PhaseStaticDelivery] = ms(10)
		a.Phases[critpath.PhaseBERTT] = ms(20)
		a.Phases[critpath.PhaseBEProc] = ms((50 + float64(i%7)) * slow)
		a.Phases[critpath.PhaseDynamicDelivery] = ms(15)
		a.Total = a.Sum()
		a.Tdelta = ms(70)
		a.Tdynamic = ms(100)
		a.FetchEstimate = ms(80)
		co.Observe(a, ms(82))
	}
	return reg
}

func TestProfileFromMetrics(t *testing.T) {
	reg := feedCritRegistry(t, "bing-like", 1)
	rows := ProfileFromMetrics(reg)
	if len(rows) != critpath.NumPhases {
		t.Fatalf("got %d rows, want %d (every phase observed, zeros included)",
			len(rows), critpath.NumPhases)
	}
	if rows[0].Phase != "be-proc" {
		t.Fatalf("top blame = %q, want be-proc", rows[0].Phase)
	}
	var share float64
	for _, r := range rows {
		if r.Service != "bing-like" {
			t.Fatalf("unexpected service %q", r.Service)
		}
		if r.Count != 200 {
			t.Fatalf("phase %s count = %d, want 200", r.Phase, r.Count)
		}
		share += r.SharePct
	}
	if math.Abs(share-100) > 1e-6 {
		t.Fatalf("shares sum to %.6f, want 100", share)
	}

	var csvb, tab strings.Builder
	if err := WriteProfileCSV(&csvb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvb.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(rows)+1)
	}
	if !strings.HasPrefix(lines[0], "service,phase,count,total_ms") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if err := WriteProfileTable(&tab, rows, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "be-proc") {
		t.Fatalf("table missing top phase:\n%s", tab.String())
	}
	// Top-3 cut: header + column line + 3 phase rows.
	if got := strings.Count(tab.String(), "\n"); got != 5 {
		t.Fatalf("table has %d lines, want 5:\n%s", got, tab.String())
	}
}

func TestDiffMetricsSameRunClean(t *testing.T) {
	a := feedCritRegistry(t, "bing-like", 1)
	b := feedCritRegistry(t, "bing-like", 1)
	rep := DiffMetrics(a, b, DiffOptions{})
	if rep.Failed() || len(rep.Rows) != 0 {
		t.Fatalf("identical runs produced breaches: %+v", rep.Rows)
	}
	if rep.SeriesCompared == 0 {
		t.Fatal("no series compared")
	}
}

func TestDiffMetricsCatchesBESlowdown(t *testing.T) {
	old := feedCritRegistry(t, "bing-like", 1)
	slow := feedCritRegistry(t, "bing-like", 1.5)
	rep := DiffMetrics(old, slow, DiffOptions{})
	if !rep.Failed() {
		t.Fatal("1.5× BE slowdown not flagged as regression")
	}
	found := false
	for _, row := range rep.Rows {
		if row.Family == "critpath_phase_seconds" && strings.Contains(row.Labels, "phase=be-proc") {
			if !row.Regression {
				t.Fatalf("be-proc breach not marked regression: %+v", row)
			}
			found = true
		}
		if strings.Contains(row.Labels, "phase=handshake") {
			t.Fatalf("untouched phase flagged: %+v", row)
		}
	}
	if !found {
		t.Fatalf("regression rows do not name be-proc: %+v", rep.Rows)
	}
	var b strings.Builder
	if err := rep.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "be-proc") {
		t.Fatalf("verdict table missing regression naming be-proc:\n%s", out)
	}
}

// TestDiffMetricsCatchesGrowthFromZero: the critical-path families
// observe zeros by design, so a phase appearing where the old run had
// none (BE queueing under new load) moves every quantile off exactly 0.
// No relative delta exists there; the absolute floor alone decides.
func TestDiffMetricsCatchesGrowthFromZero(t *testing.T) {
	feed := func(queue time.Duration) *MetricsRegistry {
		reg := obs.NewRegistry()
		co := analysis.NewCritObserver(reg, "bing-like")
		for i := 0; i < 100; i++ {
			var a critpath.Attribution
			a.Phases[critpath.PhaseHandshake] = 40 * time.Millisecond
			a.Phases[critpath.PhaseBEQueue] = queue
			a.Total = a.Sum()
			co.Observe(a, 0)
		}
		return reg
	}
	rep := DiffMetrics(feed(0), feed(300*time.Millisecond), DiffOptions{Families: []string{"critpath_phase_seconds"}})
	if !rep.Failed() || rep.Regressions != 3 {
		t.Fatalf("be-queue 0 → 300 ms at every quantile: %d regressions, want 3 (rows %+v)", rep.Regressions, rep.Rows)
	}
	for _, row := range rep.Rows {
		if !strings.Contains(row.Labels, "phase=be-queue") || row.Old != 0 || !math.IsInf(row.DeltaPct, +1) {
			t.Fatalf("breach row = %+v, want be-queue off an old value of 0 with DeltaPct +Inf", row)
		}
	}
	var b strings.Builder
	if err := rep.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, " new\n") || strings.Contains(out, "Inf") {
		t.Fatalf("verdict table must print `new` in the delta column, not Inf:\n%s", out)
	}
	// Both sides at 0 is no move: the untouched zero phases stay silent
	// and a same-seed pair still diffs clean.
	if rep := DiffMetrics(feed(0), feed(0), DiffOptions{}); rep.Failed() || len(rep.Rows) != 0 {
		t.Fatalf("identical zero phases produced breaches: %+v", rep.Rows)
	}
}

// TestDiffNothingComparedFails: a regression gate that compared
// nothing has not passed — an empty new dump, two runs sharing no
// sketch series and a family filter matching nothing all fail it.
func TestDiffNothingComparedFails(t *testing.T) {
	reg := feedCritRegistry(t, "bing-like", 1)
	for name, rep := range map[string]*DiffReport{
		"empty new dump":    DiffMetrics(reg, obs.NewRegistry(), DiffOptions{}),
		"disjoint services": DiffMetrics(reg, feedCritRegistry(t, "google-like", 1), DiffOptions{}),
		"family filter":     DiffMetrics(reg, reg, DiffOptions{Families: []string{"no_such_family"}}),
	} {
		if rep.SeriesCompared != 0 || rep.Regressions != 0 {
			t.Fatalf("%s: compared %d series, %d regressions; the case must compare nothing", name, rep.SeriesCompared, rep.Regressions)
		}
		if !rep.Failed() {
			t.Errorf("%s: 0 series compared and the gate passed", name)
		}
	}
}

// TestDiffMetricsJSONLRoundTrip pins the CLI path: a registry written
// to metrics JSONL and re-read diffs clean against itself.
func TestDiffMetricsJSONLRoundTrip(t *testing.T) {
	reg := feedCritRegistry(t, "google-like", 1)
	var b strings.Builder
	if err := WriteMetricsJSONL(&b, reg); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadMetricsJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep := DiffMetrics(reg, back, DiffOptions{})
	if rep.Failed() || len(rep.Rows) != 0 {
		t.Fatalf("JSONL round trip changed quantiles: %+v", rep.Rows)
	}
	if len(rep.OnlyOld) != 0 || len(rep.OnlyNew) != 0 {
		t.Fatalf("JSONL round trip lost series: old=%v new=%v", rep.OnlyOld, rep.OnlyNew)
	}
}
