// Command benchmark is the repository's end-to-end benchmark: four
// frozen study workloads, six end-to-end metrics and an outside-in
// per-layer ledger. See README.md in this directory.
//
// Three ways to call it:
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's protocol)
//	benchmark -seed N -out benchmark/out/result.json          every workload, traced and untraced, as a table
//	benchmark compare A.json B.json                           apply each metric's bound to two result files
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return cmdChild(args[1:])
		case "compare":
			return cmdCompare(args[1:])
		case "manifest":
			b, err := manifestJSON()
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(b)
			return err
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload and print one JSON result line (driver protocol); empty runs all")
	seed := fs.Int64("seed", 42, "workload seed; every generator seed derives from it (42 also checks testdata/golden; 7 is the held-out seed)")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", "", "without -workload: write the full result JSON here (default benchmark/out/result.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	p := &parent{root: root, outDir: filepath.Join(root, "benchmark", "out"), seed: *seed, seconds: *seconds}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	if *workloadName != "" {
		return p.driverRun(*workloadName, *trace != 0)
	}
	if *out == "" {
		*out = filepath.Join(p.outDir, "result.json")
	}
	return p.runAll(*out)
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding BENCHMARK.json and go.mod. A directory with the
// benchmark alone is not a checkout, and the run fails there.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
				return "", fmt.Errorf("%s holds BENCHMARK.json but not the fesplit module: nothing to measure", dir)
			}
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no BENCHMARK.json above the working directory: run from a repository checkout")
		}
		dir = up
	}
}

// --- child side ---

func cmdChild(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var o childOpts
	fs.StringVar(&o.Workload, "workload", "", "")
	fs.Int64Var(&o.Seed, "seed", 42, "")
	fs.Float64Var(&o.Seconds, "seconds", runSeconds, "")
	fs.StringVar(&o.Mode, "mode", modeMeasure, "")
	fs.StringVar(&o.Root, "root", "", "")
	fs.StringVar(&o.OutDir, "outdir", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.Scale = &fullScale
	res, err := runChild(o)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// --- parent side ---

type parent struct {
	root, outDir string
	seed         int64
	seconds      float64
}

// spawn runs one child to completion and decodes its last stdout line.
// The returned start time is taken just before exec, for setup_s.
func (p *parent) spawn(workload, mode string) (*childResult, time.Time, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := exec.Command(exe, "child",
		"-workload", workload, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds),
		"-mode", mode, "-root", p.root, "-outdir", p.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, start, fmt.Errorf("%s %s run: %w", workload, mode, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, start, fmt.Errorf("%s %s run: unreadable result: %w", workload, mode, err)
	}
	return &res, start, nil
}

// setupRuns is how many cold processes set_up is the median of.
const setupRuns = 3

// runResult is one workload's run as the parent reports it.
type runResult struct {
	Workload string `json:"workload"`
	Loop     string `json:"loop"`
	Workers  int    `json:"workers"`
	// Untraced run.
	Reps     int                `json:"reps"`
	WallS    float64            `json:"wall_s"`
	Digest   string             `json:"digest"`
	Sim      map[string]float64 `json:"sim"`
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	// Traced run.
	TracedReps  int                `json:"traced_reps,omitempty"`
	TracedWallS float64            `json:"traced_wall_s,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	NA          []string           `json:"na,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (r *runResult) correct() bool { return len(r.Failures) == 0 }

// measureRun is the untraced run of one workload: setupRuns−1 cold
// set-up-only processes, then the measuring process, whose own set-up
// is the last sample.
func (p *parent) measureRun(w workload) (*runResult, error) {
	rr := &runResult{Workload: w.Name, Loop: w.Loop, Workers: w.Workers}
	var setups []float64
	var res *childResult
	for i := 0; i < setupRuns; i++ {
		mode := modeSetup
		if i == setupRuns-1 {
			mode = modeMeasure
		}
		var start time.Time
		var err error
		if res, start, err = p.spawn(w.Name, mode); err != nil {
			return nil, err
		}
		setups = append(setups, time.Unix(0, res.SetupEndUnixNano).Sub(start).Seconds())
		rr.Failures = append(rr.Failures, res.Failures...)
	}
	rr.Reps, rr.WallS, rr.Digest, rr.Sim = res.Reps, res.WallS, res.Digest, res.Sim
	rr.Attempted, rr.Failed = res.Attempted, res.Failed
	rr.EndToEnd = res.EndToEnd
	rr.EndToEnd["setup_s"] = summarize(setups, "s")
	got := map[string]float64{}
	for k, v := range rr.EndToEnd {
		got[k] = v.Value
	}
	if err := checkDeclared(w.Name, endToEnd, got, nil); err != nil {
		rr.Failures = append(rr.Failures, "metric-drift: "+err.Error())
	}
	return rr, nil
}

// traceRun is the traced run of one workload, merged into rr when the
// untraced run came first.
func (p *parent) traceRun(w workload, rr *runResult) (*runResult, error) {
	res, _, err := p.spawn(w.Name, modeTrace)
	if err != nil {
		return nil, err
	}
	if rr == nil {
		rr = &runResult{Workload: w.Name, Loop: w.Loop, Workers: w.Workers,
			Digest: res.Digest, Sim: res.Sim, Attempted: res.Attempted, Failed: res.Failed}
	} else if res.Digest != rr.Digest {
		rr.Failures = append(rr.Failures, fmt.Sprintf("trace-digest: traced run digest %.12s, untraced %.12s", res.Digest, rr.Digest))
	}
	rr.TracedReps, rr.TracedWallS = res.Reps, res.WallS
	rr.PerLayer, rr.NA = res.PerLayer, res.NA
	rr.Failures = append(rr.Failures, res.Failures...)
	return rr, nil
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (p *parent) driverRun(name string, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	var rr *runResult
	var err error
	line := driverLine{Metrics: map[string]driverMetric{}}
	if traced {
		if rr, err = p.traceRun(w, nil); err != nil {
			return err
		}
		for _, d := range perLayer {
			line.Metrics[d.Name] = driverMetric{rr.PerLayer[d.Name], d.Unit}
		}
	} else {
		if rr, err = p.measureRun(w); err != nil {
			return err
		}
		for _, d := range endToEnd {
			line.Metrics[d.Name] = driverMetric{rr.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	for _, f := range rr.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", f)
	}
	line.Correct, line.Attempted, line.Failed = rr.correct(), rr.Attempted, rr.Failed
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return err
	}
	if !line.Correct {
		return fmt.Errorf("%s: %d output check(s) failed", name, len(rr.Failures))
	}
	return nil
}

// resultFile is benchmark/out/result.json: every workload's run plus
// the environment it ran in.
type resultFile struct {
	Env       envInfo               `json:"env"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	TotalS    float64               `json:"total_s"`
	Workloads map[string]*runResult `json:"workloads"`
}

func (p *parent) runAll(outPath string) error {
	started := time.Now()
	file := resultFile{Env: captureEnv(p.root), Seed: p.seed, Seconds: p.seconds, Workloads: map[string]*runResult{}}
	failed := 0
	for _, w := range workloads {
		fmt.Printf("== %s (seed %d, %d worker(s); %s)\n", w.Name, p.seed, w.Workers, w.Loop)
		rr, err := p.measureRun(w)
		if err != nil {
			return err
		}
		if rr, err = p.traceRun(w, rr); err != nil {
			return err
		}
		file.Workloads[w.Name] = rr
		printRun(rr)
		failed += len(rr.Failures)
	}
	file.TotalS = time.Since(started).Seconds()
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("== %d workloads in %.0f s — %s\n", len(workloads), file.TotalS, outPath)
	if failed > 0 {
		return fmt.Errorf("%d output check(s) failed", failed)
	}
	return nil
}

func printRun(rr *runResult) {
	fmt.Printf("   %d timed reps in %.1f s (traced run: %d reps, %.1f s); digest %.16s; %d queries attempted, %d failed\n",
		rr.Reps, rr.WallS, rr.TracedReps, rr.TracedWallS, rr.Digest, rr.Attempted, rr.Failed)
	for _, d := range endToEnd {
		s := rr.EndToEnd[d.Name]
		fmt.Printf("   %-36s %14.6g %-6s q1 %.6g  q3 %.6g  n %d  (%s is better, bound %.0f%%)\n",
			d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N, d.Better, 100*d.Bound)
	}
	na := map[string]bool{}
	for _, n := range rr.NA {
		na[n] = true
	}
	for _, d := range perLayer {
		if na[d.Name] {
			fmt.Printf("   %-36s %14s %-6s [%s]\n", d.Name, "n/a", d.Unit, d.Source)
			continue
		}
		fmt.Printf("   %-36s %14.6g %-6s [%s]\n", d.Name, rr.PerLayer[d.Name], d.Unit, d.Source)
	}
	sort.Strings(rr.Failures)
	for _, f := range rr.Failures {
		fmt.Printf("   CHECK FAILED: %s\n", f)
	}
}
