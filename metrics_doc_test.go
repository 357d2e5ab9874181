package fesplit

import (
	"fmt"
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
	checkGeneratedBlock(t, filepath.Join("docs", "METRICS.md"), metricsDocBegin, metricsDocEnd, b.String())
}
