package fesplit

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fesplit/internal/baseline"
	"fesplit/internal/cdn"
)

// TestStudyHeadlineFindings runs the light-scale study end to end and
// asserts the paper's cross-service findings hold in shape:
//
//  1. Bing-like FEs are closer to clients (Figure 6),
//  2. yet Bing-like Tstatic and Tdynamic are higher and more variable
//     (Figure 7),
//  3. overall delay is worse and more variable for Bing-like (Figure 8),
//  4. the fetch-time factoring separates the services by an order of
//     magnitude in processing time with similar slopes (Figure 9),
//  5. no result caching is detected on the deployed services, while the
//     positive control is caught (Section 3).
func TestStudyHeadlineFindings(t *testing.T) {
	study := NewStudy(LightStudyConfig(7))

	// (1) Figure 6.
	fig6, err := study.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	byName6 := map[string]*Fig6Data{}
	for _, f := range fig6 {
		byName6[f.Service] = f
	}
	bing6, google6 := byName6["bing-like"], byName6["google-like"]
	if bing6 == nil || google6 == nil {
		t.Fatalf("missing services in fig6: %v", byName6)
	}
	if bing6.FracUnder20ms <= google6.FracUnder20ms {
		t.Fatalf("fig6: Bing-like (%.2f under 20ms) must beat Google-like (%.2f)",
			bing6.FracUnder20ms, google6.FracUnder20ms)
	}

	// (2) Figure 7.
	fig7, err := study.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	byName7 := map[string]*Fig7Data{}
	for _, f := range fig7 {
		byName7[f.Service] = f
	}
	bing7, google7 := byName7["bing-like"], byName7["google-like"]
	if bing7.MedStaticMS <= google7.MedStaticMS {
		t.Fatalf("fig7: Bing-like Tstatic (%.1f) must exceed Google-like (%.1f)",
			bing7.MedStaticMS, google7.MedStaticMS)
	}
	if bing7.MedDynamicMS <= google7.MedDynamicMS {
		t.Fatalf("fig7: Bing-like Tdynamic (%.1f) must exceed Google-like (%.1f)",
			bing7.MedDynamicMS, google7.MedDynamicMS)
	}
	if bing7.IQRDynMS <= google7.IQRDynMS {
		t.Fatalf("fig7: Bing-like Tdynamic IQR (%.1f) must exceed Google-like (%.1f)",
			bing7.IQRDynMS, google7.IQRDynMS)
	}

	// (3) Figure 8.
	fig8, err := study.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	byName8 := map[string]*Fig8Data{}
	for _, f := range fig8 {
		byName8[f.Service] = f
	}
	bing8, google8 := byName8["bing-like"], byName8["google-like"]
	if bing8.MedOverallMS <= google8.MedOverallMS {
		t.Fatalf("fig8: Bing-like overall (%.1f ms) must exceed Google-like (%.1f ms)",
			bing8.MedOverallMS, google8.MedOverallMS)
	}
	if bing8.SpreadMS <= google8.SpreadMS {
		t.Fatalf("fig8: Bing-like spread (%.1f) must exceed Google-like (%.1f)",
			bing8.SpreadMS, google8.SpreadMS)
	}

	// (4) Figure 9.
	fig9, err := study.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	byName9 := map[string]*Fig9Data{}
	for _, f := range fig9 {
		byName9[f.Service] = f
	}
	bing9, google9 := byName9["bing-like"], byName9["google-like"]
	if bing9.Result.ProcTimeMS < 4*google9.Result.ProcTimeMS {
		t.Fatalf("fig9: Bing-like intercept (%.1f) must dwarf Google-like (%.1f)",
			bing9.Result.ProcTimeMS, google9.Result.ProcTimeMS)
	}
	if bing9.Result.SlopeMSPerMile <= 0 || google9.Result.SlopeMSPerMile <= 0 {
		t.Fatalf("fig9: slopes must be positive: %.4f / %.4f",
			bing9.Result.SlopeMSPerMile, google9.Result.SlopeMSPerMile)
	}
	ratio := bing9.Result.SlopeMSPerMile / google9.Result.SlopeMSPerMile
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("fig9: slopes should be similar across services, ratio %.2f", ratio)
	}

	// (5) Caching.
	caching, err := study.Caching()
	if err != nil {
		t.Fatal(err)
	}
	if caching.Deployed.CachingDetected {
		t.Fatalf("caching: false positive on deployed service: %+v", caching.Deployed)
	}
	if !caching.Control.CachingDetected {
		t.Fatalf("caching: positive control missed: %+v", caching.Control)
	}

	t.Logf("fig6 under-20ms: bing %.2f google %.2f", bing6.FracUnder20ms, google6.FracUnder20ms)
	t.Logf("fig7 Tdyn: bing %.1f±%.1f google %.1f±%.1f ms",
		bing7.MedDynamicMS, bing7.IQRDynMS, google7.MedDynamicMS, google7.IQRDynMS)
	t.Logf("fig9: bing %.4f·x+%.1f, google %.4f·x+%.1f",
		bing9.Result.SlopeMSPerMile, bing9.Result.ProcTimeMS,
		google9.Result.SlopeMSPerMile, google9.Result.ProcTimeMS)
}

func TestStudyFig3ClassEffect(t *testing.T) {
	study := NewStudy(LightStudyConfig(3))
	f3, err := study.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Classes) != 4 {
		t.Fatalf("classes = %d", len(f3.Classes))
	}
	for _, c := range f3.Classes {
		if len(f3.Tstatic[c]) == 0 || len(f3.Tdynamic[c]) == 0 {
			t.Fatalf("empty series for class %v", c)
		}
	}
	// Tdynamic should differ across classes far more than Tstatic:
	// compare the spread of class medians.
	medOf := func(m map[QueryClass][]float64) (lo, hi float64) {
		lo, hi = 1e18, -1e18
		for _, c := range f3.Classes {
			var sum float64
			for _, v := range m[c] {
				sum += v
			}
			med := sum / float64(len(m[c]))
			if med < lo {
				lo = med
			}
			if med > hi {
				hi = med
			}
		}
		return lo, hi
	}
	stLo, stHi := medOf(f3.Tstatic)
	dyLo, dyHi := medOf(f3.Tdynamic)
	if (dyHi - dyLo) <= (stHi - stLo) {
		t.Fatalf("class effect: Tdynamic spread (%.1f) must exceed Tstatic spread (%.1f)",
			dyHi-dyLo, stHi-stLo)
	}
}

func TestStudyFig4TimelinesMerge(t *testing.T) {
	study := NewStudy(LightStudyConfig(4))
	rows, err := study.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].RTTMS <= rows[i-1].RTTMS {
			t.Fatal("rows not RTT-ordered")
		}
	}
	// Each timeline must contain a handshake and payload packets.
	for _, row := range rows {
		var payloads int
		for _, ev := range row.Events {
			if ev.Payload > 0 && !ev.Send {
				payloads++
			}
		}
		if payloads < 5 {
			t.Fatalf("row RTT=%.1f has only %d inbound payload packets", row.RTTMS, payloads)
		}
	}
	// The static→dynamic cluster gap must merge as RTT grows. At high
	// RTT the only remaining receive gaps are slow-start window rounds
	// (≈ 1 RTT each), so measure the largest gap in units of RTT: many
	// RTTs at the low end, ~1 RTT once the clusters coalesce.
	maxGapRTTs := func(row Fig4Row) float64 {
		var prev float64 = -1
		var gap float64
		for _, ev := range row.Events {
			if ev.Send || ev.Payload == 0 {
				continue
			}
			if prev >= 0 && ev.AtMS-prev > gap {
				gap = ev.AtMS - prev
			}
			prev = ev.AtMS
		}
		return gap / row.RTTMS
	}
	first, last := maxGapRTTs(rows[0]), maxGapRTTs(rows[len(rows)-1])
	if first < 3 {
		t.Fatalf("no distinct clusters at low RTT: max gap %.1f RTTs", first)
	}
	if last > 1.5 {
		t.Fatalf("clusters did not merge at high RTT: max gap %.1f RTTs", last)
	}
}

func TestStudyFig5ThresholdOrdering(t *testing.T) {
	study := NewStudy(LightStudyConfig(5))
	fig5, err := study.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Fig5Data{}
	for _, f := range fig5 {
		byName[f.Service] = f
	}
	bing, google := byName["bing-like"], byName["google-like"]
	if bing == nil || google == nil {
		t.Fatal("missing service")
	}
	for _, f := range fig5 {
		if !f.BoundsOK {
			t.Fatalf("%s: inference bounds failed: %.1f ≤ %.1f ≤ %.1f",
				f.Service, f.BoundLoMS, f.TruthMS, f.BoundHiMS)
		}
	}
	// The Tdelta threshold is higher for the slower back-end
	// (paper: Google 50–100 ms, Bing 100–200 ms).
	if bing.HasThresh && google.HasThresh && bing.ThresholdMS <= google.ThresholdMS {
		t.Fatalf("thresholds: bing %.0f ms should exceed google %.0f ms",
			bing.ThresholdMS, google.ThresholdMS)
	}
	t.Logf("thresholds: bing %.0f ms (found=%v), google %.0f ms (found=%v)",
		bing.ThresholdMS, bing.HasThresh, google.ThresholdMS, google.HasThresh)
}

func TestWriteReportRendersEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	study := NewStudy(LightStudyConfig(6))
	var buf bytes.Buffer
	if err := study.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Section 3",
		"bing-like", "google-like", "threshold", "Tfetch",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out[:min(len(out), 2000)])
		}
	}
}

func TestPlacementSweepPublicAPI(t *testing.T) {
	pts, err := baseline.PlacementSweep(baseline.SweepConfig{
		Fractions: []float64{0.1, 0.9}, Repeats: 5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var buf bytes.Buffer
	WritePlacementSweep(&buf, pts)
	if !strings.Contains(buf.String(), "fraction") || strings.Contains(buf.String(), " -") {
		t.Fatalf("sweep table missing its header, or marking a sampled median as empty:\n%s", buf.String())
	}
	// A position where no query completed has no overall or Tdynamic
	// median to print — but the FE still finished fetches.
	buf.Reset()
	WritePlacementSweep(&buf, []PlacementPoint{{Fraction: 0.5, Fetches: 3, MedFetch: 250 * time.Millisecond}})
	row := strings.Fields(strings.Split(buf.String(), "\n")[1])
	if want := []string{"0.50", "0", "0", "-", "-", "250.0"}; !reflect.DeepEqual(row, want) {
		t.Fatalf("row for a position with no completed query = %q, want %q", row, want)
	}
}

func TestDirectBaselinePublicAPI(t *testing.T) {
	res, err := RunDirectBaseline(cdn.SingleBE(GoogleLike(1), "google-be-lenoir"),
		10, 3, 2, time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for i := 1; i < len(res); i++ {
		if res[i].RTT < res[i-1].RTT {
			t.Fatal("results not RTT-sorted")
		}
	}
}

func TestWriteCSVsExportsFigures(t *testing.T) {
	study := NewStudy(LightStudyConfig(8))
	rep := &Report{Config: study.Config()}
	var err error
	if rep.Fig4, err = study.Fig4(); err != nil {
		t.Fatal(err)
	}
	if rep.Fig6, err = study.Fig6(); err != nil {
		t.Fatal(err)
	}
	if rep.Fig9, err = study.Fig9(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig4.csv", "fig6.csv", "fig9.csv"} {
		st, err := os.Stat(filepath.Join(dir, want))
		if err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s empty", want)
		}
	}
	// Figures not computed must not produce files.
	if _, err := os.Stat(filepath.Join(dir, "fig3.csv")); !os.IsNotExist(err) {
		t.Fatal("fig3.csv written without data")
	}
	// CSV must parse back.
	f, err := os.Open(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 || len(rows[0]) != 6 {
		t.Fatalf("fig9.csv shape: %d rows × %d cols", len(rows), len(rows[0]))
	}
}

func TestTermEffectStudy(t *testing.T) {
	study := NewStudy(LightStudyConfig(9))
	res, err := study.TermEffect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("services = %d", len(res))
	}
	for _, d := range res {
		if len(d.Points) < 3 {
			t.Fatalf("%s: term buckets = %d", d.Service, len(d.Points))
		}
		if d.SlopeMSPerTerm <= 0 {
			t.Fatalf("%s: slope = %.2f, want positive", d.Service, d.SlopeMSPerTerm)
		}
	}
	// Bing charges more per term than Google (12 vs 2 ms configured).
	var bing, google *TermEffectData
	for _, d := range res {
		switch d.Service {
		case "bing-like":
			bing = d
		case "google-like":
			google = d
		}
	}
	if bing.SlopeMSPerTerm <= google.SlopeMSPerTerm {
		t.Fatalf("term slopes: bing %.2f should exceed google %.2f",
			bing.SlopeMSPerTerm, google.SlopeMSPerTerm)
	}
}

func TestInteractiveStudy(t *testing.T) {
	study := NewStudy(LightStudyConfig(10))
	res, err := study.Interactive("cloud computing")
	if err != nil {
		t.Fatal(err)
	}
	if !res.ModelHolds {
		t.Fatal("per-keystroke sessions did not fit the basic model")
	}
	if res.Connections != res.Keystrokes {
		t.Fatalf("connections %d != keystrokes %d (paper: fresh TCP per letter)",
			res.Connections, res.Keystrokes)
	}
	if len(res.PerKeystrokeTdynMS) != res.Keystrokes {
		t.Fatalf("Tdynamic series incomplete: %d/%d",
			len(res.PerKeystrokeTdynMS), res.Keystrokes)
	}
}

func TestWirelessStudy(t *testing.T) {
	study := NewStudy(LightStudyConfig(11))
	res, err := study.Wireless()
	if err != nil {
		t.Fatal(err)
	}
	if res.WirelessOverallMS <= res.CampusOverallMS {
		t.Fatalf("wireless (%.1f) not slower than campus (%.1f)",
			res.WirelessOverallMS, res.CampusOverallMS)
	}
	if res.WirelessRetrans <= res.CampusRetrans {
		t.Fatalf("wireless retrans (%d) not above campus (%d)",
			res.WirelessRetrans, res.CampusRetrans)
	}
}

func TestModelValidationStudy(t *testing.T) {
	study := NewStudy(LightStudyConfig(12))
	res, err := study.ModelValidation()
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes < 40 {
		t.Fatalf("nodes = %d", res.Nodes)
	}
	// The analytic model should track the simulation closely.
	if res.MedAbsErrTdynMS > 15 {
		t.Fatalf("median |Tdynamic error| = %.1f ms, want ≤15", res.MedAbsErrTdynMS)
	}
	if res.MedAbsErrDeltaMS > 15 {
		t.Fatalf("median |Tdelta error| = %.1f ms, want ≤15", res.MedAbsErrDeltaMS)
	}
	if res.Within10ms < 0.5 {
		t.Fatalf("only %.0f%% of nodes within 10 ms", 100*res.Within10ms)
	}
	t.Logf("model vs sim: |Tdyn err| %.1f ms, |Tdelta err| %.1f ms, %.0f%% within 10 ms",
		res.MedAbsErrTdynMS, res.MedAbsErrDeltaMS, 100*res.Within10ms)
}
