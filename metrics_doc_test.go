package fesplit

import (
	"fmt"
	"os"
	"path/filepath"
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
	want := b.String()

	path := filepath.Join("docs", "METRICS.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	head, rest, ok := strings.Cut(doc, metricsDocBegin)
	got, tail, ok2 := strings.Cut(rest, metricsDocEnd)
	if !ok || !ok2 {
		t.Fatalf("%s lacks the generated-block markers:\n%s%s", path, metricsDocBegin, metricsDocEnd)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(head+metricsDocBegin+want+metricsDocEnd+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the family table of %s (%d families)", path, len(out.Metrics.Families()))
		return
	}
	if got != want {
		t.Errorf("%s family table drifted from the registry — rerun with -update and review.\n--- documented\n%s--- registered\n%s",
			path, got, want)
	}
}
