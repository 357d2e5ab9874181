package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStudyArgumentValidation: bad arguments to `study` and `profile`
// come back as errors naming the offending flag, before any output
// directory exists.
func TestStudyArgumentValidation(t *testing.T) {
	tests := []struct {
		name string
		cmd  func([]string) error
		args []string
		flag string
	}{
		{"study zero workers", cmdStudy, []string{"-workers", "0"}, "-workers"},
		{"study unknown scale", cmdStudy, []string{"-scale", "huge"}, "-scale"},
		{"study clients without diurnal", cmdStudy, []string{"-clients", "5"}, "-clients"},
		{"study removed stream flag", cmdStudy, []string{"-stream"}, "-stream"},
		{"profile zero workers", cmdProfile, []string{"-workers", "0"}, "-workers"},
		{"profile unknown scale", cmdProfile, []string{"-scale", "huge"}, "-scale"},
		{"profile removed stream flag", cmdProfile, []string{"-stream"}, "-stream"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "out")
			err := tc.cmd(append([]string{"-dir", dir}, tc.args...))
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
