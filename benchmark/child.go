package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"fesplit"
)

// One child process runs one workload once: set-up, an untimed warm-up
// repetition, then timed repetitions of the workload's unit of work for
// the run's duration. The parent re-execs itself for every run so each
// starts from a cold process and set-up is measured from process start.

// Child modes.
const (
	modeSetup   = "setup"   // stop after the warm-up repetition
	modeMeasure = "measure" // end-to-end metrics, tracing off
	modeTrace   = "trace"   // per-layer metrics
)

type childOpts struct {
	Workload string
	Seed     int64
	Seconds  float64
	Mode     string
	Scale    *scale
	// MinReps overrides the fewest repetitions per phase (0 keeps
	// minReps, and two per traced phase); the self-tests use 1.
	MinReps int
	// Root is the repository checkout; OutDir is benchmark/out in it.
	Root   string
	OutDir string
}

// childResult is the JSON a child prints as its last stdout line.
type childResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Mode     string  `json:"mode"`
	Reps     int     `json:"reps"`
	WallS    float64 `json:"wall_s"`
	// SetupEndUnixNano is when the first timed repetition could start;
	// the parent subtracts its own pre-exec timestamp.
	SetupEndUnixNano int64 `json:"setup_end_unix_nano"`
	// Attempted and Failed sum the queries of the timed repetitions.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Failures names every output check that did not hold.
	Failures []string `json:"failures,omitempty"`
	Digest   string   `json:"digest"`
	// Sim is the modelled system's result, exact per seed.
	Sim map[string]float64 `json:"sim"`
	// EndToEnd (measure mode) holds medians over the timed repetitions.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	// PerLayer (trace mode) holds every declared per-layer metric; NA
	// lists the ones not observable on this workload (reported as 0).
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	NA       []string           `json:"na,omitempty"`
}

func (r *childResult) fail(format string, args ...interface{}) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// traceMemProfileRate is the allocation sampling period of traced
// repetitions, in bytes.
const traceMemProfileRate = 64 << 10

// minReps is the fewest timed repetitions a run reports a median over.
const minReps = 3

// runner drives repetitions of one workload and applies the output
// checks every repetition must pass.
type runner struct {
	opts   childOpts
	wl     workload
	res    *childResult
	heap   *heapSampler
	digest string
}

// rep runs one repetition under measurement and checks its outputs.
func (r *runner) rep(rc *repCtx) (repStats, *outcome, error) {
	var out *outcome
	st, err := measureRep(r.heap, func() (err error) {
		out, err = r.wl.run(rc)
		return err
	})
	if err != nil {
		return st, nil, fmt.Errorf("%s: %w", r.wl.Name, err)
	}
	digest, err := out.seal()
	if err != nil {
		return st, nil, fmt.Errorf("%s: output digest: %w", r.wl.Name, err)
	}
	out.seal = nil // drops the repetition's outputs before the next one is measured
	// Worker count never changes results, so the w1 leg shares the digest.
	if r.digest == "" {
		r.digest = digest
	} else if digest != r.digest {
		r.res.fail("digest-unstable: repetition digest %s, first was %s", digest[:12], r.digest[:12])
	}
	if want := r.opts.Scale.Queries[r.wl.Name]; want > 0 && out.Queries != want {
		r.res.fail("query-count: repetition delivered %d queries, frozen configuration delivers %d", out.Queries, want)
	}
	if out.DeltaOverDynamic > 0 {
		r.res.fail("delta-over-dynamic: %d sessions with Tdelta > Tdynamic", out.DeltaOverDynamic)
	}
	return st, out, nil
}

// minRepsOr is the fewest repetitions of a phase.
func (r *runner) minRepsOr(def int) int {
	if r.opts.MinReps > 0 {
		return r.opts.MinReps
	}
	return def
}

func (r *runner) ctx() *repCtx {
	return &repCtx{
		seed:    r.opts.Seed,
		sc:      r.opts.Scale,
		workers: r.wl.Workers,
		outDir:  filepath.Join(r.opts.OutDir, fmt.Sprintf("files-%s-%d", r.wl.Name, os.Getpid())),
	}
}

// simOf is the modelled system's result for one outcome.
func simOf(out *outcome) map[string]float64 {
	return map[string]float64{
		"sim.queries_per_rep":         float64(out.Queries),
		"sim.failed_share":            ratio(float64(out.Failed), float64(out.Attempted)),
		"sim.refused_share":           ratio(float64(out.Refused), float64(out.Attempted)),
		"sim.overall_p50_ms":          out.P50MS,
		"sim.overall_tail_ms":         out.TailMS,
		"sim.tail_percentile":         out.TailPct,
		"analysis.unmeasurable_share": ratio(float64(out.Failed), float64(out.Attempted)),
	}
}

// runChild is the whole life of one child process.
func runChild(opts childOpts) (*childResult, error) {
	started := time.Now()
	wl, ok := workloadByName(opts.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opts.Workload, workloadNames())
	}
	res := &childResult{Workload: wl.Name, Seed: opts.Seed, Mode: opts.Mode}
	r := &runner{opts: opts, wl: wl, res: res, heap: newHeapSampler()}
	rc := r.ctx()
	defer os.RemoveAll(rc.outDir)

	// Set-up: the warm-up repetition fills pools and sizes the heap.
	_, warm, err := r.rep(rc)
	if err != nil {
		return nil, err
	}
	if wl.Name == wObserved && opts.Seed == 42 && opts.Scale.Name == fullScale.Name {
		if err := checkGolden(rc.outDir, filepath.Join(opts.Root, "testdata", "golden")); err != nil {
			res.fail("golden: %v", err)
		}
	}
	res.SetupEndUnixNano = time.Now().UnixNano()
	res.Sim = simOf(warm)
	res.Digest = r.digest

	switch opts.Mode {
	case modeSetup:
	case modeMeasure:
		err = r.measure(rc)
	case modeTrace:
		err = r.trace(rc)
	default:
		err = fmt.Errorf("unknown child mode %q", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	res.WallS = time.Since(started).Seconds()
	if res.PerLayer != nil {
		res.PerLayer["bench.total_s"] = res.WallS
	}
	return res, nil
}

// timedReps repeats the workload until budget seconds have passed (and
// at least min times), accumulating attempted/failed counts.
func (r *runner) timedReps(rc *repCtx, budget float64, min int) (sts []repStats, queries float64, err error) {
	t0 := time.Now()
	for len(sts) < min || time.Since(t0).Seconds() < budget {
		st, out, err := r.rep(rc)
		if err != nil {
			return nil, 0, err
		}
		sts = append(sts, st)
		queries = float64(out.Queries)
		r.res.Attempted += out.Attempted
		r.res.Failed += out.Failed
	}
	r.res.Reps += len(sts)
	return sts, queries, nil
}

func column(sts []repStats, f func(repStats) float64) []float64 {
	xs := make([]float64, len(sts))
	for i, st := range sts {
		xs[i] = f(st)
	}
	return xs
}

// measure is the untraced run: medians over the timed repetitions.
func (r *runner) measure(rc *repCtx) error {
	sts, q, err := r.timedReps(rc, r.opts.Seconds, r.minRepsOr(minReps))
	if err != nil {
		return err
	}
	e := map[string]summary{}
	put := func(name string, f func(repStats) float64) {
		def, _ := metricByName(name)
		e[name] = summarize(column(sts, f), def.Unit)
	}
	put("queries_per_s", func(s repStats) float64 { return q / s.WallS })
	put("cpu_ms_per_query", func(s repStats) float64 { return 1e3 * s.CPUS / q })
	put("alloc_bytes_per_query", func(s repStats) float64 { return float64(s.AllocBytes) / q })
	put("allocs_per_query", func(s repStats) float64 { return float64(s.Mallocs) / q })
	put("heap_p99_mb", func(s repStats) float64 { return s.HeapP99MB })
	r.res.EndToEnd = e
	return nil
}

// trace is the traced run: a few untraced repetitions for reference,
// then repetitions with spans, count sources and profiles switched on,
// then the probes that run outside the workload.
func (r *runner) trace(rc *repCtx) error {
	per := map[string]float64{}
	for _, name := range []string{"emulator.fleet_slots", "emulator.fleet_peak_live",
		"emulator.fleet_peak_felog", "emulator.fleet_arena_cap", "obs.series", "obs.exemplars",
		"analysis.bound_violations"} {
		per[name] = 0 // the layer did nothing unless the workload says otherwise
	}
	share := r.opts.Seconds * 0.3
	plain, _, err := r.timedReps(rc, share, r.minRepsOr(2))
	if err != nil {
		return err
	}
	plainWall := median(column(plain, func(s repStats) float64 { return s.WallS }))
	plainCPU := median(column(plain, func(s repStats) float64 { return s.CPUS }))

	// Tracing on. Sampling one allocation per 64 KiB still takes ~50 000
	// samples per repetition (4 KiB, as first planned, cost 50 % of wall);
	// the baseline taken now cancels everything sampled before.
	sp := newSpanRec(fmt.Sprintf("%s-seed%d", r.wl.Name, r.opts.Seed))
	runtime.MemProfileRate = traceMemProfileRate
	allocBefore, err := allocProfile()
	if err != nil {
		return err
	}
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	trc := *rc
	trc.sp, trc.traced = sp, true
	tracedRep := func(rc *repCtx) (repStats, *outcome, error) {
		defer sp.begin("rep")()
		return r.rep(rc)
	}
	var traced []repStats
	var last *outcome
	t0 := time.Now()
	for len(traced) < r.minRepsOr(2) || time.Since(t0).Seconds() < share {
		st, out, err := tracedRep(&trc)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		traced = append(traced, st)
		last = out
	}
	pprof.StopCPUProfile()
	allocAfter, err := allocProfile()
	if err != nil {
		return err
	}
	runtime.MemProfileRate = 512 * 1024
	r.res.Reps += len(traced)
	nT := float64(len(traced))
	q := float64(last.Queries)

	// C: counts of the last traced repetition (they repeat exactly).
	for k, v := range simOf(last) {
		per[k] = v
	}
	for k, v := range last.Counts {
		per[k] = v
	}
	snap := last.Eng.Snapshot()
	engineCounts(per, snap, q)
	if last.Reg != nil {
		registryCounts(per, last.Reg, float64(snap.Fastpath.Segments))
		if r.wl.Name == wObserved {
			per["obs.series"] = float64(countSeries(last.Reg))
			per["critpath.records"] = sumCounters(last.Reg, "critpath_records_total")
			breaks := sumCounters(last.Reg, "critpath_conservation_breaks_total")
			per["critpath.conservation_breaks"] = breaks
			if breaks != 0 {
				r.res.fail("conservation: %v critical-path attributions do not sum to their span", breaks)
			}
		}
	}
	per["go-runtime.gc_cycles_per_kquery"] = 1e3 * median(column(plain, func(s repStats) float64 { return float64(s.GCCycles) })) / q
	per["go-runtime.gc_pause_ms"] = median(column(plain, func(s repStats) float64 { return s.GCPauseMS }))

	// P: profiles of the traced repetitions.
	if err := profileMetrics(per, cpuBuf.Bytes(), allocBefore, allocAfter, nT, q); err != nil {
		return err
	}

	// S: spans of the traced repetitions.
	if r.wl.Name == wPaperCore {
		for _, cell := range studyCells[:paperCoreCells] {
			per["study.cell."+cell+"_s"] = median(sp.durations("cell:" + cell))
		}
	}
	tracedWall := median(column(traced, func(s repStats) float64 { return s.WallS }))
	per["bench.trace_overhead_pct"] = 100 * (tracedWall/plainWall - 1)

	// The rest runs outside the workload's repetitions.
	if err := r.extras(&trc, per, plainWall, plainCPU); err != nil {
		return err
	}
	kp, err := kernelProbes(r.opts.Seed, r.wl.Name == wLossy)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	for k, v := range kp {
		per[k] = v
	}
	bp, err := buildProbes(r.opts.Seed, r.wl.Name, r.opts.Scale)
	if err != nil {
		return fmt.Errorf("build probe: %w", err)
	}
	for k, v := range bp {
		per[k] = v
	}
	per["bench.total_s"] = 0 // filled when the child ends

	// Declared-versus-reported, and n/a as an explicit list.
	na := map[string]bool{}
	for _, d := range perLayer {
		if !d.on(r.wl.Name) {
			per[d.Name] = 0
			na[d.Name] = true
		}
	}
	if err := checkDeclared(r.wl.Name, perLayer, per, na); err != nil {
		r.res.fail("metric-drift: %v", err)
	}
	for name := range na {
		r.res.NA = append(r.res.NA, name)
	}
	sort.Strings(r.res.NA)
	r.res.PerLayer = per

	f, err := os.Create(filepath.Join(r.opts.OutDir, "trace-"+r.wl.Name+".json"))
	if err != nil {
		return err
	}
	if err := sp.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// extras are the workload-specific legs of the traced run: the w1 leg
// of the sharded workloads and study-observed's per-cell, export and
// observation-overhead timings.
func (r *runner) extras(rc *repCtx, per map[string]float64, w2Wall, w2CPU float64) error {
	sp := rc.sp
	switch r.wl.Name {
	case wFleet:
		per["report.csv_s"] = median(sp.durations("WriteFleetCSV"))
	case wObserved:
		per["report.csv_s"] = median(sp.durations("WriteCSVs"))
		per["report.text_s"] = median(sp.durations("WriteText"))
		per["report.html_s"] = median(sp.durations("WriteHTML"))
		reps := float64(len(sp.durations("rep")))
		var export float64
		for _, d := range sp.durations("export") {
			export += d
		}
		per["obs.export_s"] = export / reps
	default:
		return nil
	}

	// w1 leg: same work on one worker. Its digest must equal w2's
	// (rep checks it), its wall and CPU give the shard metrics —
	// reported, never gated: on two vCPUs the speed-up is small.
	one := *rc
	one.sp, one.traced, one.workers = nil, false, 1
	st, _, err := r.rep(&one)
	if err != nil {
		return err
	}
	per["shard.speedup_x"] = st.WallS / w2Wall
	per["shard.cpu_inflation_x"] = w2CPU / st.CPUS
	if r.wl.Name != wObserved {
		return nil
	}

	if err := runCellsSerial(rc); err != nil {
		return err
	}
	for _, cell := range studyCells {
		per["study.cell."+cell+"_s"] = median(sp.durations("cell:" + cell))
	}

	// Observation overhead: the same matrix with and without observers,
	// back to back under the same process state.
	timeMatrix := func(observed bool) (float64, error) {
		s := fesplit.NewStudy(observedConfig(rc))
		t0 := time.Now()
		var err error
		if observed {
			_, err = s.RunAllObserved()
		} else {
			_, err = s.RunAll()
		}
		return time.Since(t0).Seconds(), err
	}
	withObs, err := timeMatrix(true)
	if err != nil {
		return err
	}
	without, err := timeMatrix(false)
	if err != nil {
		return err
	}
	per["obs.observe_overhead_pct"] = 100 * (withObs/without - 1)
	return nil
}

// allocProfile snapshots the cumulative allocation profile. Two
// collections publish every sample taken so far.
func allocProfile() (*profile, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	return parseProfile(buf.Bytes())
}

// cpuLayers and allocLayers are the layers whose profile shares the
// catalog declares.
var (
	cpuLayers   = []string{"simnet", "tcpsim", "httpsim", "workload", "frontend", "backend", "capture", "trace", "stats", "obs"}
	allocLayers = []string{"tcpsim", "httpsim", "workload", "capture", "trace", "obs"}
)

// profileMetrics fills the P metrics from the traced repetitions' CPU
// profile and allocation-profile delta.
func profileMetrics(per map[string]float64, cpuRaw []byte, allocBefore, allocAfter *profile, reps, queries float64) error {
	cpu, err := parseProfile(cpuRaw)
	if err != nil {
		return err
	}
	ci, err := cpu.valueIndex("cpu")
	if err != nil {
		return err
	}
	byLayer, total := attribute(cpu, ci)
	for _, l := range cpuLayers {
		per[l+".cpu_share"] = ratio(byLayer[l], total)
	}
	per["emulator.self_cpu_share"] = ratio(byLayer["emulator"], total)
	per["go-runtime.gc_bg_cpu_share"] = ratio(inclusive(cpu, ci, "runtime.gcBgMarkWorker"), total)
	perRep := func(substrs ...string) float64 { return inclusive(cpu, ci, substrs...) / 1e9 / reps }
	per["emulator.run_s"] = perRep("fesplit/internal/emulator.")
	per["capture.sessions_s"] = perRep("capture.(*Trace).Sessions")
	per["analysis.extract_s"] = perRep("analysis.ExtractDataset", "analysis.ExtractRecord")
	per["analysis.boundary_s"] = perRep("analysis.BoundaryFrom", "analysis.StaticBoundary")

	alloc := subtract(allocAfter, allocBefore)
	ai, err := alloc.valueIndex("alloc_space")
	if err != nil {
		return err
	}
	allocBy, _ := attribute(alloc, ai)
	for _, l := range allocLayers {
		per[l+".alloc_bytes_per_query"] = allocBy[l] / (reps * queries)
	}
	return nil
}
