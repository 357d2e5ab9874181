package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envInfo is recorded in every result file, so two files can be told
// apart by machine and toolchain before their numbers are compared.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GitRev     string `json:"git_revision"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func captureEnv(root string) envInfo {
	e := envInfo{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GitRev:     "unknown", // the driver's checkout is not a git repository
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(out))
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
