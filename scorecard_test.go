package fesplit

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestScorecardTable: every claim names a figure scoredFigures knows
// (Scorecard calls its entry), a quantity, the paper's words, a kind
// and a measure; its band is neither empty nor reversed; no two claims
// share a figure and quantity; no text holds a Markdown cell break.
func TestScorecardTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range claims {
		name := c.Figure + " " + c.Quantity
		if scoredFigures[c.Figure] == nil || c.Quantity == "" || c.Paper == "" || c.measure == nil ||
			c.Kind != Structural && c.Kind != Calibrated && c.Kind != Extension || !(c.Lo <= c.Hi) || seen[name] ||
			strings.Contains(name+c.Paper, "|") {
			t.Errorf("%s: malformed, reversed or duplicate claim, or a | that splits its Markdown row: %+v", name, c)
		}
		seen[name] = true
	}
}

// TestScorecardMissingInputs: a row whose input is missing is n/a,
// never in — an absent figure, a per-service slice with an empty slot,
// a Tdelta threshold not found, a Fig 9 fit without points, a caching
// probe that has not run, the cell table's shell with its unrun
// wireless legs — and a reversed ordering is out, a slower campus leg
// included, without an error from any writer. The text report lists
// the rows of the figures it holds and no others.
func TestScorecardMissingInputs(t *testing.T) {
	verdicts := func(r *Report) map[string]string {
		m := map[string]string{}
		for _, row := range r.Scorecard() {
			m[row.Figure+" "+row.Quantity] = row.Verdict
		}
		return m
	}
	for _, r := range []*Report{{}, (&Study{}).newReport()} {
		for name, v := range verdicts(r) {
			if v != VerdictNA {
				t.Errorf("report without data: %s is %s, want n/a", name, v)
			}
		}
	}
	rep := &Report{
		Fig5: []*Fig5Data{
			{Service: "bing-like", ThresholdMS: 150, HasThresh: true, BoundsOK: true},
			{Service: "google-like", ThresholdMS: 75},
		},
		Fig6: []*Fig6Data{{Service: "bing-like", FracUnder20ms: 0.5}, {Service: "google-like", FracUnder20ms: 0.6}},
		Fig9: []*Fig9Data{
			{Service: "bing-like", Result: FactorResult{SlopeMSPerMile: 0.08, ProcTimeMS: 260}},
			{Service: "google-like", Result: FactorResult{SlopeMSPerMile: 0.099, ProcTimeMS: 34}},
		},
		Wireless: &WirelessData{CampusOverallMS: 100, WirelessOverallMS: 90, CampusRetrans: 3, WirelessRetrans: 3},
	}
	got := verdicts(rep)
	for name, want := range map[string]string{
		"Fig 5 bing-like inference bounds hold (1 = yes)":           VerdictIn,
		"Fig 5 google-like inference bounds hold (1 = yes)":         VerdictOut,
		"Fig 5 Tdelta→0 threshold, bing − google (ms)":              VerdictNA,
		"Fig 5 google-like Tdelta→0 threshold (ms)":                 VerdictNA,
		"Fig 5 bing-like Tdelta→0 threshold (ms)":                   VerdictIn,
		"Fig 6 share of nodes under 20 ms, bing − google (%)":       VerdictOut,
		"Fig 9 bing-like slope (ms/mile)":                           VerdictNA,
		"Fig 9 intercept ratio, bing / google":                      VerdictNA,
		"Discussion median overall delay, wireless − campus (ms)":   VerdictOut,
		"Discussion client-side retransmissions, wireless − campus": VerdictOut,
	} {
		if got[name] != want {
			t.Errorf("%s is %q, want %q", name, got[name], want)
		}
	}
	var b strings.Builder
	err := errors.Join(rep.WriteText(io.Discard), WriteScorecardCSV(io.Discard, rep.Scorecard()), (&Report{Fig5: rep.Fig5}).WriteText(&b))
	if err != nil {
		t.Fatal(err)
	}
	if text := b.String(); !strings.Contains(text, "Scorecard") || !strings.Contains(text, "Fig 5 ") || strings.Contains(text, "Fig 6 ") {
		t.Errorf("a Fig 5 report's scorecard must list the Fig 5 rows and no others:\n%s", text)
	}
}
