package fesplit

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var seed42 struct {
	once sync.Once
	rep  *Report
	err  error
}

// seed42Report runs the light study at seed 42 once per test binary; the
// tests that read it share the one report.
func seed42Report(t *testing.T) *Report {
	t.Helper()
	seed42.once.Do(func() { seed42.rep, seed42.err = NewStudy(LightStudyConfig(42)).RunAll() })
	if seed42.err != nil {
		t.Fatal(seed42.err)
	}
	return seed42.rep
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden CSV files and the generated blocks of EXPERIMENTS.md and docs/METRICS.md from the current study output")

// TestGoldenFigureCSVs regression-pins every figure CSV of the light
// study at seed 42. The study is deterministic end to end, so any byte
// of drift here means an intended algorithm change (rerun with
// `go test -run TestGoldenFigureCSVs -update ./` and review the diff)
// or an accidental reproducibility break — the failure mode this PR's
// parallel runner must never introduce.
func TestGoldenFigureCSVs(t *testing.T) {
	rep := seed42Report(t)
	dir := t.TempDir()
	if err := rep.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("study produced no CSV figures")
	}
	checkScorecardDoc(t, rep)

	goldenDir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, path := range got {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, filepath.Base(path)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden files in %s", len(got), goldenDir)
		return
	}

	want, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("no golden files in %s — run with -update to create them", goldenDir)
	}
	wantNames := map[string]bool{}
	for _, path := range want {
		wantNames[filepath.Base(path)] = true
	}
	for _, path := range got {
		name := filepath.Base(path)
		if !wantNames[name] {
			t.Errorf("study emits %s but no golden file exists — run with -update", name)
			continue
		}
		delete(wantNames, name)
		gotB, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(gotB) != string(wantB) {
			t.Errorf("%s drifted from golden (%d vs %d bytes) — if intended, rerun with -update and review",
				name, len(gotB), len(wantB))
		}
	}
	for name := range wantNames {
		t.Errorf("golden file %s no longer produced by the study", name)
	}
}

// The scorecard block of EXPERIMENTS.md sits between these two comments
// and is generated, never hand-edited.
const (
	scorecardDocBegin = "<!-- BEGIN GENERATED scorecard: go test -run TestGoldenFigureCSVs -update . -->\n"
	scorecardDocEnd   = "<!-- END GENERATED scorecard -->\n"
)

// checkScorecardDoc holds EXPERIMENTS.md's scorecard block to the
// scorecard of the light seed-42 report, the way
// TestMetricsDocMatchesRegistry holds docs/METRICS.md to the registry.
func checkScorecardDoc(t *testing.T, rep *Report) {
	var b strings.Builder
	b.WriteString("| Figure | Quantity | Paper | Band | Kind | Light, seed 42 | Verdict |\n|---|---|---|---|---|---|---|\n")
	for _, r := range rep.Scorecard() {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n",
			r.Figure, r.Quantity, r.Paper, r.Band(), r.Kind, r.Measured(), r.Verdict)
	}
	checkGeneratedBlock(t, "EXPERIMENTS.md", scorecardDocBegin, scorecardDocEnd, b.String())
}

// checkGeneratedBlock holds the block of the document at path between
// the begin and end markers to want; -update rewrites it instead.
func checkGeneratedBlock(t *testing.T, path, begin, end, want string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(raw), begin)
	got, tail, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("%s lacks the generated-block markers:\n%s%s", path, begin, end)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(head+begin+want+end+tail), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if got != want {
		t.Errorf("%s generated block drifted — rerun with -update and review.\n--- documented\n%s--- generated\n%s", path, got, want)
	}
}
