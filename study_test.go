package fesplit

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fesplit/internal/baseline"
	"fesplit/internal/cdn"
)

// assertScorecard runs one light study at seed, lets fill put the
// figures it computes into a report, and asserts that every structural
// and extension scorecard row of the figures that report holds is in
// its band. Calibrated rows are reported, not asserted.
func assertScorecard(t *testing.T, seed int64, fill func(s *Study, r *Report) error) {
	t.Helper()
	study := NewStudy(LightStudyConfig(seed))
	rep := &Report{Config: study.Config()}
	if err := fill(study, rep); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, row := range rep.Scorecard() {
		if row.held && row.Kind != Calibrated && row.Verdict != VerdictIn {
			t.Errorf("seed %d: %s %s = %s, want in %s (paper: %s)",
				seed, row.Figure, row.Quantity, row.Measured(), row.Band(), row.Paper)
		}
	}
}

// TestStudyHeadlineFindings asserts the structural Fig 6–9 and caching
// rows at seed 7: Bing-like FEs are closer yet slower and more
// variable, the fetch-time fits differ in intercept by far more than in
// slope, and only the positive control caches.
func TestStudyHeadlineFindings(t *testing.T) {
	assertScorecard(t, 7, func(s *Study, r *Report) error {
		var errs [5]error
		r.Fig6, errs[0] = s.Fig6()
		r.Fig7, errs[1] = s.Fig7()
		r.Fig8, errs[2] = s.Fig8()
		r.Fig9, errs[3] = s.Fig9()
		r.Caching, errs[4] = s.Caching()
		return errors.Join(errs[:]...)
	})
}

// TestStudyFig3ClassEffect asserts the Fig 3 class-effect row at seed 3:
// Tdynamic medians spread across query classes more than Tstatic's.
func TestStudyFig3ClassEffect(t *testing.T) {
	assertScorecard(t, 3, func(s *Study, r *Report) (err error) {
		if r.Fig3, err = s.Fig3(); err == nil && len(r.Fig3.Classes) != 4 {
			err = fmt.Errorf("fig3: %d classes, want 4", len(r.Fig3.Classes))
		}
		return
	})
}

// TestStudyFig4TimelinesMerge asserts the Fig 4 merge rows at seed 4 —
// the static and dynamic clusters apart at the lowest RTT and merged at
// the highest — and that the timelines are RTT-ordered with payload in
// each.
func TestStudyFig4TimelinesMerge(t *testing.T) {
	assertScorecard(t, 4, func(s *Study, r *Report) (err error) {
		if r.Fig4, err = s.Fig4(); err != nil || len(r.Fig4) != 5 {
			return errors.Join(err, fmt.Errorf("fig4: %d timelines, want 5", len(r.Fig4)))
		}
		for i, row := range r.Fig4 {
			payloads := 0
			for _, ev := range row.Events {
				if ev.Payload > 0 && !ev.Send {
					payloads++
				}
			}
			if payloads < 5 || i > 0 && row.RTTMS <= r.Fig4[i-1].RTTMS {
				return fmt.Errorf("fig4: timeline %d (RTT %.1f ms) has %d inbound payload packets or is out of RTT order",
					i, row.RTTMS, payloads)
			}
		}
		return nil
	})
}

// TestStudyFig5ThresholdOrdering asserts the Fig 5 rows at seed 5: the
// inference bounds hold for both services and Bing-like's Tdelta→0
// threshold is above Google-like's.
func TestStudyFig5ThresholdOrdering(t *testing.T) {
	assertScorecard(t, 5, func(s *Study, r *Report) (err error) {
		r.Fig5, err = s.Fig5()
		return
	})
}
func TestWriteReportRendersEverySection(t *testing.T) {
	var buf bytes.Buffer
	if err := seed42Report(t).WriteText(&buf); err != nil {
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

// TestTermEffectStudy asserts the E1 rows at seed 9, ≥ 3 term buckets each.
func TestTermEffectStudy(t *testing.T) {
	assertScorecard(t, 9, func(s *Study, r *Report) (err error) {
		r.TermEffect, err = s.TermEffect()
		for _, d := range r.TermEffect {
			if len(d.Points) < 3 {
				err = fmt.Errorf("%s: %d term buckets, want ≥ 3", d.Service, len(d.Points))
			}
		}
		return
	})
}

// TestInteractiveStudy asserts the §6 rows at seed 10.
func TestInteractiveStudy(t *testing.T) {
	assertScorecard(t, 10, func(s *Study, r *Report) (err error) {
		r.Interactive, err = s.Interactive("cloud computing")
		return
	})
}

// TestWirelessStudy asserts the Discussion rows at seed 11.
func TestWirelessStudy(t *testing.T) {
	assertScorecard(t, 11, func(s *Study, r *Report) (err error) {
		r.Wireless, err = s.Wireless()
		return
	})
}

// TestModelValidationStudy asserts the E7 rows at seed 12, on ≥ 40 nodes.
func TestModelValidationStudy(t *testing.T) {
	assertScorecard(t, 12, func(s *Study, r *Report) (err error) {
		if r.ModelCheck, err = s.ModelValidation(); err == nil && r.ModelCheck.Nodes < 40 {
			err = fmt.Errorf("model validation: %d nodes, want ≥ 40", r.ModelCheck.Nodes)
		}
		return
	})
}
