package fesplit

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// exportAll renders every artifact of an observed study run into named
// byte blobs: the metrics dumps, the span export, both report formats
// and all figure CSVs. Byte equality of this map is the strongest
// equivalence the exporters can express.
func exportAll(t *testing.T, out *StudyOutput) map[string][]byte {
	t.Helper()
	blobs := map[string][]byte{}
	put := func(name string, write func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blobs[name] = buf.Bytes()
	}
	put("metrics.jsonl", func(w *bytes.Buffer) error { return WriteMetricsJSONL(w, out.Metrics) })
	put("metrics.prom", func(w *bytes.Buffer) error { return WritePrometheus(w, out.Metrics) })
	put("spans.jsonl", func(w *bytes.Buffer) error { return WriteSpansJSONL(w, out.Spans()) })
	put("report.txt", func(w *bytes.Buffer) error { return out.Report.WriteText(w) })
	put("report.html", func(w *bytes.Buffer) error {
		return out.Report.WriteHTML(w, out.Metrics, out.Exemplars)
	})
	dir := t.TempDir()
	if err := out.Report.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		blobs[filepath.Base(name)] = b
	}
	return blobs
}

// TestParallelSerialEquivalence is the PR's headline property: the full
// observed study produces byte-identical artifacts — metrics JSONL,
// Prometheus text, span JSONL, figure CSVs, text and HTML reports —
// whether it runs on one worker or many. Workers schedule; they never
// decide.
func TestParallelSerialEquivalence(t *testing.T) {
	seeds := []int64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		run := func(workers int) map[string][]byte {
			cfg := LightStudyConfig(seed)
			cfg.Workers = workers
			out, err := NewStudy(cfg).RunAllObserved()
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			return exportAll(t, out)
		}
		serial, parallel := run(1), run(4)
		if len(serial) != len(parallel) {
			t.Fatalf("seed %d: artifact sets differ: %d vs %d", seed, len(serial), len(parallel))
		}
		for name, want := range serial {
			got, ok := parallel[name]
			if !ok {
				t.Errorf("seed %d: parallel run missing %s", seed, name)
				continue
			}
			if !bytes.Equal(want, got) {
				t.Errorf("seed %d: %s differs between workers=1 and workers=4 (%d vs %d bytes)",
					seed, name, len(want), len(got))
			}
		}
		if len(serial["metrics.jsonl"]) == 0 || len(serial["fig7.csv"]) == 0 {
			t.Fatalf("seed %d: equivalence vacuous — empty artifacts", seed)
		}
	}
}

// TestSerialMethodsMatchRunAll pins the other face of equivalence: the
// public per-figure methods (the serial API) return exactly what the
// parallel matrix assembled, because both sides call the same per-cell
// helpers with the same seeds.
func TestSerialMethodsMatchRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate simulation campaigns in -short mode")
	}
	cfg := LightStudyConfig(5)
	cfg.Workers = 2
	rep, err := NewStudy(cfg).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	serial := NewStudy(cfg)
	caching, err := serial.Caching()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(caching, rep.Caching) {
		t.Errorf("Caching() diverges from RunAll: %+v vs %+v", caching, rep.Caching)
	}
	term, err := serial.TermEffect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(term, rep.TermEffect) {
		t.Errorf("TermEffect() diverges from RunAll")
	}
	fig9, err := serial.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig9, rep.Fig9) {
		t.Errorf("Fig9() diverges from RunAll")
	}
	fig5, err := serial.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig5, rep.Fig5) {
		t.Errorf("Fig5() diverges from RunAll")
	}
	// Fig6–Fig8 run the same figA rows; the campaign behind them is
	// memoized on the serial study, so three calls cost one.
	fig6, err := serial.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := serial.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := serial.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig6, rep.Fig6) || !reflect.DeepEqual(fig7, rep.Fig7) || !reflect.DeepEqual(fig8, rep.Fig8) {
		t.Errorf("Fig6/Fig7/Fig8() diverge from RunAll")
	}
	wireless, err := serial.Wireless()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wireless, rep.Wireless) {
		t.Errorf("Wireless() diverges from RunAll: %+v vs %+v", wireless, rep.Wireless)
	}
}

// TestCellTableContract pins the study matrix against a literal list:
// the cell order is the merge order of registries and tail samplers,
// so a renamed, reordered, added or dropped row changes exported bytes.
func TestCellTableContract(t *testing.T) {
	want := []string{
		"fig3", "fig4",
		"fig5/bing-like", "fig5/google-like",
		"figA/bing-like", "figA/google-like",
		"fig9/bing-like", "fig9/google-like",
		"caching/deployed", "caching/control",
		"term-effect/bing-like", "term-effect/google-like",
		"interactive", "model-validation",
		"wireless/campus", "wireless/wireless",
		"queue/overload", "queue/hotspot", "queue/failover", "queue/capacity",
	}
	var got []string
	seen := map[string]bool{}
	for _, c := range NewStudy(LightStudyConfig(1)).cells() {
		if seen[c.name] {
			t.Errorf("cell name %q appears twice", c.name)
		}
		seen[c.name] = true
		got = append(got, c.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cell table is\n  %q\nwant\n  %q", got, want)
	}
}

func TestRunAllRejectsNegativeWorkers(t *testing.T) {
	cfg := LightStudyConfig(1)
	cfg.Workers = -1
	_, err := NewStudy(cfg).RunAll()
	if err == nil {
		t.Fatal("Workers=-1 accepted")
	}
	if !strings.Contains(err.Error(), "Workers") {
		t.Errorf("error %q does not mention Workers", err)
	}
	if _, err := NewStudy(cfg).RunAllObserved(); err == nil {
		t.Fatal("Workers=-1 accepted by RunAllObserved")
	}
}

// TestObservationDoesNotPerturbReport: RunAllObserved must hand back
// the same report RunAll does — observation is read-only.
func TestObservationDoesNotPerturbReport(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate study run in -short mode")
	}
	cfg := LightStudyConfig(3)
	cfg.Workers = 4
	plain, err := NewStudy(cfg).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	observed, err := NewStudy(cfg).RunAllObserved()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := observed.Report.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("observed report text differs from plain RunAll")
	}
}
