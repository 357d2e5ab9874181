package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fesplit"
)

// runCLI runs one command line in-process and returns its exit code
// and both output streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestStudyArgumentValidation: a bad argument to any command exits 1
// with an error naming the offending flag or value, before any output
// exists (dirArg, on the commands that have one); a missing, unknown or
// removed command exits 2 with the usage text, which lists exactly the
// dispatch table.
func TestStudyArgumentValidation(t *testing.T) {
	notATrace := filepath.Join(t.TempDir(), "not-a-trace")
	if err := os.WriteFile(notATrace, []byte("module fesplit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	emptyDump := filepath.Join(t.TempDir(), "metrics.jsonl")
	if err := os.WriteFile(emptyDump, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		cmd    string
		dirArg string // the command's output flag, if any
		args   []string
		code   int
		want   string // substring of stderr
	}{
		{"report unknown scale", "report", "-csv", []string{"-scale", "huge"}, 1, "-scale"},
		{"report has no pool flag", "report", "-csv", []string{"-workers", "0"}, 1, "-workers"},
		{"report unknown figure", "report", "-csv", []string{"-fig", "12"}, 1, "-fig"},
		{"report without figure", "report", "-csv", nil, 1, "-fig"},
		{"report all figures", "report", "-csv", []string{"-fig", "all"}, 1, "-fig"},
		{"study zero workers", "study", "-dir", []string{"-workers", "0"}, 1, "-workers"},
		{"study unknown scale", "study", "-dir", []string{"-scale", "huge"}, 1, "-scale"},
		{"study clients without diurnal", "study", "-dir", []string{"-clients", "5"}, 1, "-clients"},
		{"study horizon without diurnal", "study", "-dir", []string{"-horizon", "4m"}, 1, "-horizon requires -diurnal"},
		{"study fleet-batches without diurnal", "study", "-dir", []string{"-fleet-batches", "2"}, 1, "-fleet-batches requires -diurnal"},
		{"study node-batches with diurnal", "study", "-dir", []string{"-diurnal", "-clients", "5", "-node-batches", "2"}, 1, "-node-batches does not apply"},
		{"study linger with diurnal", "study", "-dir", []string{"-diurnal", "-clients", "5", "-listen", "127.0.0.1:0", "-linger", "1s"}, 1, "-linger does not apply"},
		{"study linger without listen", "study", "-dir", []string{"-linger", "1s"}, 1, "-linger requires -listen"},
		{"study progress-interval without telemetry", "study", "-dir", []string{"-progress-interval", "2s"}, 1, "-progress-interval requires"},
		{"study removed stream flag", "study", "-dir", []string{"-stream"}, 1, "-stream"},
		{"study negative be-slowdown", "study", "-dir", []string{"-be-slowdown", "-2"}, 1, "-be-slowdown must be ≥ 0"},
		{"study be-slowdown with diurnal", "study", "-dir", []string{"-diurnal", "-clients", "5", "-be-slowdown", "2"}, 1, "-be-slowdown does not apply"},
		{"sweep unknown flag", "sweep", "", []string{"-fraction", "0.5"}, 1, "-fraction"},
		{"sweep loss above one", "sweep", "", []string{"-loss", "2"}, 1, "loss rate 2"},
		{"sweep no query completes", "sweep", "", []string{"-loss", "0.9", "-repeats", "3"}, 1, "fraction 0.05, 0.10,"},
		{"direct negative nodes", "direct", "", []string{"-nodes", "-3"}, 1, "got -3"},
		{"direct zero nodes", "direct", "", []string{"-nodes", "0"}, 1, "got 0"},
		{"direct unknown service", "direct", "", []string{"-service", "yahoo"}, 1, "-service"},
		{"trace zero rtt", "trace", "-o", []string{"-rtt", "0"}, 1, "-rtt"},
		{"trace negative rtt", "trace", "-o", []string{"-rtt", "-40"}, 1, "-rtt"},
		{"decode no file", "decode", "", nil, 1, "exactly one trace file"},
		{"decode not a trace", "decode", "", []string{notATrace}, 1, "not a valid fesplit trace"},
		{"diff one argument", "diff", "", []string{notATrace}, 1, "usage: fesplit diff"},
		{"diff nothing compared", "diff", "", []string{emptyDump, emptyDump}, 1, "nothing compared"},
		{"no command", "", "", nil, 2, "commands:"},
		{"unknown command", "frobnicate", "", nil, 2, `unknown command "frobnicate"`},
		{"removed obs", "obs", "-dir", nil, 2, `unknown command "obs"`},
		{"removed interactive", "interactive", "", nil, 2, `unknown command "interactive"`},
		{"removed live", "live", "", nil, 2, `unknown command "live"`},
		// profile is folded into study: its old invocations are refused
		// as a removed command, whatever flags they carry.
		{"profile zero workers", "profile", "-dir", []string{"-workers", "0"}, 2, `unknown command "profile"`},
		{"profile unknown scale", "profile", "-dir", []string{"-scale", "huge"}, 2, `unknown command "profile"`},
		{"profile removed stream flag", "profile", "-dir", []string{"-stream"}, 2, `unknown command "profile"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "out")
			var args []string
			if tc.cmd != "" {
				args = append(args, tc.cmd)
			}
			if tc.dirArg != "" {
				args = append(args, tc.dirArg, dir)
			}
			code, stdout, stderr := runCLI(append(args, tc.args...)...)
			if code != tc.code {
				t.Fatalf("%v: exit code %d, want %d (stderr: %s)", args, code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not name %q", stderr, tc.want)
			}
			if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
				t.Errorf("output created despite the error (stat: %v)", statErr)
			}
			if tc.code != 2 {
				return
			}
			var listed []string
			_, list, _ := strings.Cut(stderr, "commands:\n")
			for _, line := range strings.Split(list, "\n") {
				if strings.HasPrefix(line, "  ") && line[2] != ' ' {
					listed = append(listed, strings.Fields(line)[0])
				}
			}
			want := []string{"report", "study", "diff", "trace", "decode", "sweep", "direct"}
			if stdout != "" || !reflect.DeepEqual(listed, want) {
				t.Errorf("stdout %q, usage lists %q; want nothing and %q", stdout, listed, want)
			}
		})
	}
}

// TestMatrixArtifactSets: study exports exactly its documented file
// list, with runtime.jsonl only when telemetry is on, and its
// scorecard.csv holds the scorecard of the same study's report.
func TestMatrixArtifactSets(t *testing.T) {
	if testing.Short() {
		t.Skip("two light-scale study runs in -short mode")
	}
	figures := []string{
		"caching.csv", "capacity.csv", "failover.csv", "fig3.csv", "fig4.csv", "fig5.csv",
		"fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv", "hotspot.csv", "overload.csv",
	}
	study := append([]string{"metrics.jsonl", "metrics.prom", "profile.csv", "report.html", "report.txt", "scorecard.csv", "spans.jsonl"}, figures...)
	cfg := fesplit.LightStudyConfig(42)
	cfg.Workers = 2
	rep, err := fesplit.NewStudy(cfg).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var scorecard bytes.Buffer
	if err := fesplit.WriteScorecardCSV(&scorecard, rep.Scorecard()); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cmd  string
		args []string
		want []string
	}{
		{"study", "study", nil, study},
		{"study with telemetry", "study", []string{"-progress", "-progress-interval", "1h"},
			append([]string{"runtime.jsonl"}, study...)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{tc.cmd, "-dir", dir, "-workers", "2", "-seed", "42"}, tc.args...)
			if code, _, stderr := runCLI(args...); code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr)
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
			if b, err := os.ReadFile(filepath.Join(dir, "scorecard.csv")); err != nil || !bytes.Equal(b, scorecard.Bytes()) {
				t.Errorf("scorecard.csv (err %v):\n%s\nwant the report's scorecard:\n%s", err, b, scorecard.Bytes())
			}
		})
	}
}
