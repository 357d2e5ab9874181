package fesplit

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The family table of docs/METRICS.md sits between these two comments
// and is generated, never hand-edited.
const (
	metricsDocBegin = "<!-- BEGIN GENERATED family table: go test -run TestMetricsDocMatchesRegistry -update . -->\n"
	metricsDocEnd   = "<!-- END GENERATED family table -->\n"
)

// TestMetricsDocMatchesRegistry holds docs/METRICS.md to the registry:
// the documented family inventory is rendered from what the light
// observed study actually registers (name, exported kind, label names,
// help text), so a family cannot be added, removed, relabeled or
// re-kinded without the document following. Rerun with -update to
// rewrite the block and review the diff, as for the golden CSVs.
func TestMetricsDocMatchesRegistry(t *testing.T) {
	out, err := NewStudy(LightStudyConfig(42)).RunAllObserved()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| family | kind | labels | help |\n|---|---|---|---|\n")
	for _, f := range out.Metrics.Families() {
		labels := "—"
		if names := f.LabelNames(); len(names) > 0 {
			labels = "`" + strings.Join(names, "`, `") + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", f.Name, f.Kind, labels, f.Help)
	}
	checkGeneratedBlock(t, filepath.Join("docs", "METRICS.md"), metricsDocBegin, metricsDocEnd, b.String())
}

// TestDocsNameExistingTests: every Test, Fuzz, Benchmark or Example
// name the documents cite is a function of some _test.go file (a
// trailing * matches as a prefix), and every name in a Makefile -run or
// -fuzz pattern, unanchored as go test reads it, begins one.
func TestDocsNameExistingTests(t *testing.T) {
	var src strings.Builder
	err := filepath.WalkDir(".", func(path string, _ fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			src.Write(b)
			return err
		}
		return err
	})
	name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*\*?`)
	docs, _ := filepath.Glob(filepath.Join("docs", "*.md"))
	for _, path := range append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile") {
		b, rerr := os.ReadFile(path)
		err = errors.Join(err, rerr)
		text, exact := string(b), "("
		if path == "Makefile" {
			text, exact = strings.Join(regexp.MustCompile(`-(?:run|fuzz) ('[^']*'|\S+)`).FindAllString(text, -1), " "), ""
		}
		for _, cited := range name.FindAllString(text, -1) {
			prefix, star := strings.CutSuffix(cited, "*")
			if f := "\nfunc " + prefix; !strings.Contains(src.String(), f+exact) && !(star && strings.Contains(src.String(), f)) {
				t.Errorf("%s cites %s, which no _test.go defines", path, cited)
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}
