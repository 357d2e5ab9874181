package fesplit

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden CSV files and the generated family table of docs/METRICS.md from the current study output")

// TestGoldenFigureCSVs regression-pins every figure CSV of the light
// study at seed 42. The study is deterministic end to end, so any byte
// of drift here means an intended algorithm change (rerun with
// `go test -run TestGoldenFigureCSVs -update ./` and review the diff)
// or an accidental reproducibility break — the failure mode this PR's
// parallel runner must never introduce.
func TestGoldenFigureCSVs(t *testing.T) {
	cfg := LightStudyConfig(42)
	rep, err := NewStudy(cfg).RunAll()
	if err != nil {
		t.Fatal(err)
	}
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
