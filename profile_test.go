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
