package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestStudyArgumentValidation: bad arguments to the three matrix
// commands come back as errors naming the offending flag, before any
// output directory exists.
func TestStudyArgumentValidation(t *testing.T) {
	tests := []struct {
		name   string
		cmd    func([]string) error
		dirArg string // the command's output-directory flag
		args   []string
		flag   string
	}{
		{"report unknown scale", cmdReport, "-csv", []string{"-scale", "huge"}, "-scale"},
		{"report has no pool flag", cmdReport, "-csv", []string{"-workers", "0"}, "-workers"},
		{"report unknown figure", cmdReport, "-csv", []string{"-fig", "12"}, "-fig"},
		{"study zero workers", cmdStudy, "-dir", []string{"-workers", "0"}, "-workers"},
		{"study unknown scale", cmdStudy, "-dir", []string{"-scale", "huge"}, "-scale"},
		{"study clients without diurnal", cmdStudy, "-dir", []string{"-clients", "5"}, "-clients"},
		{"study removed stream flag", cmdStudy, "-dir", []string{"-stream"}, "-stream"},
		{"profile zero workers", cmdProfile, "-dir", []string{"-workers", "0"}, "-workers"},
		{"profile unknown scale", cmdProfile, "-dir", []string{"-scale", "huge"}, "-scale"},
		{"profile removed stream flag", cmdProfile, "-dir", []string{"-stream"}, "-stream"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "out")
			err := tc.cmd(append([]string{tc.dirArg, dir}, tc.args...))
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("error %q does not name %s", err, tc.flag)
			}
			if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
				t.Errorf("output directory created despite the error (stat: %v)", statErr)
			}
		})
	}
}

// TestMatrixArtifactSets: study and profile share one run body and
// differ only in what they export — exactly their documented file
// lists, with runtime.jsonl only when telemetry is on.
func TestMatrixArtifactSets(t *testing.T) {
	if testing.Short() {
		t.Skip("three light-scale study runs in -short mode")
	}
	figures := []string{
		"caching.csv", "capacity.csv", "failover.csv", "fig3.csv", "fig4.csv", "fig5.csv",
		"fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv", "hotspot.csv", "overload.csv",
	}
	study := append([]string{"metrics.jsonl", "metrics.prom", "report.html", "report.txt", "spans.jsonl"}, figures...)
	tests := []struct {
		name string
		cmd  func([]string) error
		args []string
		want []string
	}{
		{"study", cmdStudy, nil, study},
		{"study with telemetry", cmdStudy, []string{"-progress", "-progress-interval", "1h"},
			append([]string{"runtime.jsonl"}, study...)},
		{"profile", cmdProfile, nil, []string{"metrics.jsonl", "profile.csv", "report.html", "spans.jsonl"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.cmd(append([]string{"-dir", dir, "-workers", "2", "-seed", "42"}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			sort.Strings(tc.want)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s exported\n  %q\nwant\n  %q", tc.name, got, tc.want)
			}
		})
	}
}
