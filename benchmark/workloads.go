package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fesplit"
	"fesplit/internal/analysis"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/stats"
	"fesplit/internal/vantage"
)

// scale holds the frozen input sizes. The benchmark always runs
// fullScale; the self-tests run tinyScale through the same code.
type scale struct {
	Name string

	PaperNodes, PaperQueriesA, PaperRepeatsB, PaperFig3, PaperCaching int

	LossyNodes, LossyQueries int

	FleetClients int
	FleetHorizon time.Duration

	// Observed overrides LightStudyConfig sizes when > 0 (tests only).
	ObservedNodes, ObservedFig3 int

	// Queries is each workload's per-repetition query count — a
	// constant of the frozen configuration, re-derived from returned
	// data on every repetition. A change fails the run. Zero: unchecked.
	Queries map[string]int
}

var fullScale = scale{
	Name:       "full",
	PaperNodes: 100, PaperQueriesA: 12, PaperRepeatsB: 20, PaperFig3: 120, PaperCaching: 12,
	LossyNodes: 250, LossyQueries: 24,
	FleetClients: 20000, FleetHorizon: 8 * time.Minute,
	Queries: map[string]int{wPaperCore: 6880, wLossy: 12000, wFleet: 20000, wObserved: 6767},
}

var tinyScale = scale{
	Name:       "tiny",
	PaperNodes: 8, PaperQueriesA: 2, PaperRepeatsB: 2, PaperFig3: 12, PaperCaching: 3,
	LossyNodes: 8, LossyQueries: 3,
	FleetClients: 200, FleetHorizon: time.Minute,
	ObservedNodes: 8, ObservedFig3: 12,
}

// lossyAccess is the last mile of lossy-access: slow, jittery, 3 % loss.
var lossyAccess = vantage.AccessProfile{
	OneWayMin: 2 * time.Millisecond, OneWayMax: 15 * time.Millisecond,
	Jitter: 4 * time.Millisecond, Loss: 0.03,
}

// repCtx is what one repetition receives. Every generator seed derives
// from seed; the program sees only the generated inputs.
type repCtx struct {
	seed int64
	sc   *scale
	// sp records harness spans (nil on untraced repetitions).
	sp *spanRec
	// traced attaches the count sources that the workload does not
	// attach by itself: a RuntimeEngine, and on lossy-access a
	// registry-only Observer.
	traced bool
	// workers is the workload's frozen worker count, or 1 on the
	// one-worker leg of the shard metrics.
	workers int
	// outDir is a scratch directory under benchmark/out.
	outDir string
}

// outcome is what one repetition returned, re-derived from the data the
// program handed back.
type outcome struct {
	Attempted int // queries issued
	Queries   int // queries delivered to the caller as a record or figure sample
	Failed    int // attempted that failed or were unmeasurable
	Refused   int // modelled 503s — an output of the queueing cells, not a failure
	// Simulated user-perceived delay over the workload's queries.
	P50MS, TailMS, TailPct float64
	// DeltaOverDynamic counts sessions violating Tdelta ≤ Tdynamic.
	DeltaOverDynamic int
	// Counts are per-layer C metrics taken from returned structs.
	Counts map[string]float64
	// Reg and Eng are the count sources attached during the repetition.
	Reg *obs.Registry
	Eng *rt.Engine
	// seal hashes the repetition's deterministic outputs; it runs after
	// the clock stops.
	seal func() (string, error)
}

// workload is one runnable entry of workloadDefs.
type workload struct {
	Name string
	// Workers is the frozen worker count; Loop states the simulated
	// arrival discipline.
	Workers int
	Loop    string
	run     func(rc *repCtx) (*outcome, error)
}

var workloads = []workload{
	{wPaperCore, 1, "closed loop in simulated time: each node issues its next query on a fixed interval", runPaperCore},
	{wLossy, 1, "closed loop in simulated time: 250 nodes, one query every 3 s each", runLossy},
	{wFleet, 2, "open loop in simulated time: diurnal arrival curve, 20000 arrivals over 8 min", runFleet},
	{wObserved, 2, "closed-loop cells plus four open-loop surge cells (503s and retries are modelled)", runObserved},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func hashJSON(v interface{}) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- paper-core ---

func paperCoreConfig(rc *repCtx) fesplit.StudyConfig {
	cfg := fesplit.LightStudyConfig(rc.seed)
	cfg.Nodes = rc.sc.PaperNodes
	cfg.QueriesPerNodeA = rc.sc.PaperQueriesA
	cfg.RepeatsB = rc.sc.PaperRepeatsB
	cfg.Fig3Samples = rc.sc.PaperFig3
	cfg.CachingRepeats = rc.sc.PaperCaching
	cfg.Workers = rc.workers
	return cfg
}

// runPaperCore calls the closed set of Fig 3–9 + caching cells, in
// order, on one Study. The set is fixed here, not by Study.cells(), so
// a later PR adding a cell to the study does not change this workload.
func runPaperCore(rc *repCtx) (*outcome, error) {
	cfg := paperCoreConfig(rc)
	end := rc.sp.begin("NewStudy")
	s := fesplit.NewStudy(cfg)
	end()
	out := &outcome{Counts: map[string]float64{}}
	if rc.traced {
		out.Eng = fesplit.NewRuntimeEngine()
		s.SetRuntime(out.Eng)
	}
	var (
		f3  *fesplit.Fig3Data
		f4  []fesplit.Fig4Row
		f5  []*fesplit.Fig5Data
		f6  []*fesplit.Fig6Data
		f7  []*fesplit.Fig7Data
		f8  []*fesplit.Fig8Data
		f9  []*fesplit.Fig9Data
		cd  *fesplit.CachingData
		err error
	)
	cell := func(name string, fn func() error) error {
		defer rc.sp.begin("cell:" + name)()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"fig3", func() error { f3, err = s.Fig3(); return err }},
		{"fig4", func() error { f4, err = s.Fig4(); return err }},
		{"fig5", func() error { f5, err = s.Fig5(); return err }},
		// Fig 6 pays for the default-FE campaign; 7 and 8 reuse it.
		{"figA", func() error {
			if f6, err = s.Fig6(); err != nil {
				return err
			}
			if f7, err = s.Fig7(); err != nil {
				return err
			}
			f8, err = s.Fig8()
			return err
		}},
		{"fig9", func() error { f9, err = s.Fig9(); return err }},
		{"caching", func() error { cd, err = s.Caching(); return err }},
	}
	for _, st := range steps {
		if err := cell(st.name, st.fn); err != nil {
			return nil, err
		}
	}

	out.Attempted = 4*cfg.Fig3Samples + 2*cfg.Nodes*cfg.RepeatsB + 2*cfg.Nodes*cfg.QueriesPerNodeA
	for _, c := range f3.Classes {
		out.Queries += len(f3.Tdynamic[c])
	}
	countNodes := func(nodes []fesplit.NodeSummary) {
		for _, n := range nodes {
			out.Queries += n.N
			if n.MedDelta > n.MedDynamic {
				out.DeltaOverDynamic++
			}
		}
	}
	boundViolations := 0
	for _, f := range f5 {
		countNodes(f.Nodes)
		if !f.BoundsOK {
			boundViolations++
		}
	}
	for _, f := range f7 {
		countNodes(f.Nodes)
	}
	out.Failed = out.Attempted - out.Queries
	// The Study exposes overall delay only as Fig 8's per-node medians.
	var meds []float64
	for _, f := range f8 {
		for _, b := range f.Boxes {
			meds = append(meds, b.Median)
		}
	}
	out.P50MS = median(meds)
	out.TailPct, out.TailMS = tailOf(meds)
	out.Counts["analysis.bound_violations"] = float64(boundViolations)
	out.Counts["analysis.fig9_err_pct"] = fig9ErrPct(f9)
	out.seal = func() (string, error) {
		return hashJSON([]interface{}{f3, f4, canonFig5(f5), f6, canonFig7(f7), canonFig8(f8), f9, cd})
	}
	return out, nil
}

// analysis.PerNode orders nodes by median RTT alone, so two nodes with
// the same RTT come out in map-iteration order — the one place where
// the program's output order is not a function of the seed (paper-core
// hits it at seed 15). The values are unaffected, and the digest must
// be too: the canon* helpers put per-node lists in node-name order.

func sortedByNode(nodes []fesplit.NodeSummary) []fesplit.NodeSummary {
	out := append([]fesplit.NodeSummary(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func canonFig5(f5 []*fesplit.Fig5Data) []fesplit.Fig5Data {
	out := make([]fesplit.Fig5Data, len(f5))
	for i, f := range f5 {
		out[i] = *f
		out[i].Nodes = sortedByNode(f.Nodes)
	}
	return out
}

func canonFig7(f7 []*fesplit.Fig7Data) []fesplit.Fig7Data {
	out := make([]fesplit.Fig7Data, len(f7))
	for i, f := range f7 {
		out[i] = *f
		out[i].Nodes = sortedByNode(f.Nodes)
	}
	return out
}

// canonFig8 pairs Fig 8's parallel node and box slices before ordering.
func canonFig8(f8 []*fesplit.Fig8Data) interface{} {
	type nodeBox struct {
		Node string
		Box  fesplit.BoxPlot
	}
	type fig8 struct {
		Service                string
		Boxes                  []nodeBox
		MedOverallMS, SpreadMS float64
	}
	out := make([]fig8, len(f8))
	for i, f := range f8 {
		out[i] = fig8{Service: f.Service, MedOverallMS: f.MedOverallMS, SpreadMS: f.SpreadMS}
		for j, n := range f.Nodes {
			out[i].Boxes = append(out[i].Boxes, nodeBox{n, f.Boxes[j]})
		}
		sort.Slice(out[i].Boxes, func(a, b int) bool { return out[i].Boxes[a].Node < out[i].Boxes[b].Node })
	}
	return out
}

// fig9ErrPct is the simulator's stated error: the largest relative
// distance of the four Fig 9 regression coefficients from the paper's
// (Bing 260 ms + 0.08 ms/mile, Google 34 ms + 0.099 ms/mile).
func fig9ErrPct(f9 []*fesplit.Fig9Data) float64 {
	paper := map[string][2]float64{"bing-like": {260, 0.08}, "google-like": {34, 0.099}}
	worst := 0.0
	for _, f := range f9 {
		ref, ok := paper[f.Service]
		if !ok {
			continue
		}
		for i, got := range []float64{f.Result.ProcTimeMS, f.Result.SlopeMSPerMile} {
			if e := 100 * math.Abs(got-ref[i]) / ref[i]; e > worst {
				worst = e
			}
		}
	}
	return worst
}

// --- lossy-access ---

// runLossy drives the materialised Runner directly: per service a small
// unsnapped boundary probe, then the 250-node snapped campaign behind
// the lossy access link.
func runLossy(rc *repCtx) (*outcome, error) {
	out := &outcome{Counts: map[string]float64{}}
	var observer *obs.Observer
	if rc.traced {
		out.Eng = fesplit.NewRuntimeEngine()
		out.Reg = obs.NewRegistry()
		observer = &obs.Observer{Reg: out.Reg} // registry only: no span assembly
	}
	var (
		overall   []float64
		allParams [][]fesplit.Params
		events    int
	)
	services := []fesplit.DeploymentConfig{fesplit.GoogleLike(rc.seed + 2), fesplit.BingLike(rc.seed + 1)}
	for i, cfg := range services {
		base := rc.seed + 200 + int64(i)*20
		end := rc.sp.begin("boundary-probe")
		// No engine on the probe: engine and registry then cover the same
		// worlds, which tcpsim.fastlane_segment_share divides across.
		probe, err := emulator.New(base+1, cfg, emulator.Options{Nodes: 6, FleetSeed: base + 2})
		if err != nil {
			return nil, err
		}
		fe := probe.Dep.DefaultFE(probe.Fleet.Nodes[0].Point)
		merged := &emulator.Dataset{}
		for _, sd := range probe.KeywordSweep(fe, probe.NearestNode(fe), 2, 2*time.Second, base+3) {
			merged.Records = append(merged.Records, sd.Records...)
		}
		boundary := analysis.BoundaryFromDataset(merged)
		end()
		if boundary <= 0 {
			return nil, fmt.Errorf("lossy-access: boundary probe failed for %s", cfg.Name)
		}

		end = rc.sp.begin("emulator.New")
		runner, err := emulator.New(base+4, cfg, emulator.Options{
			Nodes: rc.sc.LossyNodes, FleetSeed: base + 5, SnapPayloads: true,
			Access: lossyAccess, Obs: observer, Runtime: out.Eng,
		})
		end()
		if err != nil {
			return nil, err
		}
		end = rc.sp.begin("RunExperimentA")
		ds := runner.RunExperimentA(emulator.AOptions{
			QueriesPerNode: rc.sc.LossyQueries, Interval: 3 * time.Second, QuerySeed: base + 6,
		})
		end()
		end = rc.sp.begin("ExtractDataset")
		params := analysis.ExtractDataset(ds, boundary)
		end()

		out.Attempted += len(ds.Records)
		out.Queries += len(ds.Records)
		out.Failed += len(ds.Records) - len(params)
		for _, rec := range ds.Records {
			events += len(rec.Events)
			if rec.Status == 503 {
				out.Refused++
			}
		}
		for _, p := range params {
			overall = append(overall, msOf(p.Overall))
			if p.Tdelta > p.Tdynamic {
				out.DeltaOverDynamic++
			}
		}
		allParams = append(allParams, params)
	}
	if want := 2 * rc.sc.LossyNodes * rc.sc.LossyQueries; out.Attempted != want {
		return nil, fmt.Errorf("lossy-access: %d records, campaign issues %d", out.Attempted, want)
	}
	out.P50MS = median(overall)
	out.TailPct, out.TailMS = tailOf(overall)
	out.Counts["capture.events_per_query"] = float64(events) / float64(out.Queries)
	out.seal = func() (string, error) { return hashJSON(allParams) }
	return out, nil
}

// --- fleet-diurnal ---

// runFleet runs the pooled fleet campaign the way `fesplit study
// -diurnal` does, runtime engine attached.
func runFleet(rc *repCtx) (*outcome, error) {
	cfg := fesplit.LightStudyConfig(rc.seed)
	cfg.Workers = rc.workers
	s := fesplit.NewStudy(cfg)
	out := &outcome{Counts: map[string]float64{}, Eng: fesplit.NewRuntimeEngine()}
	s.SetRuntime(out.Eng)
	end := rc.sp.begin("RunFleetStudy")
	fr, err := s.RunFleetStudy(fesplit.FleetStudyConfig{
		Clients: rc.sc.FleetClients, Horizon: rc.sc.FleetHorizon, Batches: 2, Workers: cfg.Workers,
	})
	end()
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	end = rc.sp.begin("WriteFleetCSV")
	err = fr.WriteFleetCSV(&csv)
	end()
	if err != nil {
		return nil, err
	}
	m := fr.Merged
	if m.Completed != rc.sc.FleetClients {
		return nil, fmt.Errorf("fleet-diurnal: completed %d of %d clients", m.Completed, rc.sc.FleetClients)
	}
	out.Attempted = rc.sc.FleetClients
	out.Queries = m.Completed
	out.Failed = rc.sc.FleetClients - fr.Extracted
	out.Refused = m.Rejected
	out.P50MS = fr.Overall.Quantile(0.5)
	out.TailPct = tailPctFor(int(fr.Overall.Count()))
	out.TailMS = fr.Overall.Quantile(out.TailPct / 100)
	out.Counts["emulator.fleet_slots"] = float64(m.Slots)
	out.Counts["emulator.fleet_peak_live"] = float64(m.PeakLive)
	out.Counts["emulator.fleet_peak_felog"] = float64(m.PeakFELog)
	out.Counts["emulator.fleet_arena_cap"] = float64(m.ArenaCap)
	out.Counts["analysis.bound_violations"] = float64(fr.Violations)
	out.Counts["obs.exemplars"] = float64(len(fr.Exemplars))
	out.seal = func() (string, error) {
		sum := sha256.Sum256(csv.Bytes())
		return hex.EncodeToString(sum[:]), nil
	}
	return out, nil
}

// --- study-observed ---

func observedConfig(rc *repCtx) fesplit.StudyConfig {
	cfg := fesplit.LightStudyConfig(rc.seed)
	if rc.sc.ObservedNodes > 0 {
		cfg.Nodes = rc.sc.ObservedNodes
	}
	if rc.sc.ObservedFig3 > 0 {
		cfg.Fig3Samples = rc.sc.ObservedFig3
	}
	cfg.Workers = rc.workers
	return cfg
}

// runObserved does what `fesplit study` does: the full observed matrix
// on two workers, then every exporter, into rc.outDir.
func runObserved(rc *repCtx) (*outcome, error) {
	cfg := observedConfig(rc)
	s := fesplit.NewStudy(cfg)
	out := &outcome{Counts: map[string]float64{}, Eng: fesplit.NewRuntimeEngine()}
	s.SetRuntime(out.Eng)
	end := rc.sp.begin("RunAllObserved")
	so, err := s.RunAllObserved()
	end()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	write := func(span, name string, fn func(w io.Writer) error) error {
		defer rc.sp.begin(span)()
		f, err := os.Create(filepath.Join(rc.outDir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", name, err)
		}
		return f.Close()
	}
	end = rc.sp.begin("WriteCSVs")
	err = so.Report.WriteCSVs(rc.outDir)
	end()
	if err != nil {
		return nil, err
	}
	spans := so.Spans()
	steps := []struct {
		span, name string
		fn         func(w io.Writer) error
	}{
		{"WriteText", "report.txt", so.Report.WriteText},
		{"export", "metrics.jsonl", func(w io.Writer) error { return fesplit.WriteMetricsJSONL(w, so.Metrics) }},
		{"export", "metrics.prom", func(w io.Writer) error { return fesplit.WritePrometheus(w, so.Metrics) }},
		{"export", "spans.jsonl", func(w io.Writer) error { return fesplit.WriteSpansJSONL(w, spans) }},
		{"WriteHTML", "report.html", func(w io.Writer) error { return so.Report.WriteHTML(w, so.Metrics, so.Exemplars) }},
	}
	for _, st := range steps {
		if err := write(st.span, st.name, st.fn); err != nil {
			return nil, err
		}
	}

	out.Reg = so.Metrics
	merged := stats.NewSketch(obs.DefaultSketchAlpha)
	for _, f := range so.Metrics.Families() {
		if f.Name != "query_phase_seconds" {
			continue
		}
		for _, sv := range f.Series() {
			if len(sv.LabelValues) == 2 && sv.LabelValues[1] == "overall" && sv.Sketch != nil {
				merged.Merge(sv.Sketch.Underlying())
			}
		}
	}
	out.Queries = int(merged.Count())
	out.Attempted = int(sumCounters(so.Metrics, "fe_requests_total"))
	if out.Failed = out.Attempted - out.Queries; out.Failed < 0 {
		out.Failed = 0
	}
	out.Refused = int(sumCounters(so.Metrics, "fe_rejections_total") + sumCounters(so.Metrics, "be_rejections_total"))
	out.P50MS = 1e3 * merged.Quantile(0.5)
	out.TailPct = tailPctFor(out.Queries)
	out.TailMS = 1e3 * merged.Quantile(out.TailPct/100)
	boundViolations := 0
	for _, f := range so.Report.Fig5 {
		for _, n := range f.Nodes {
			if n.MedDelta > n.MedDynamic {
				out.DeltaOverDynamic++
			}
		}
		if !f.BoundsOK {
			boundViolations++
		}
	}
	out.Counts["analysis.bound_violations"] = float64(boundViolations)
	out.Counts["analysis.fig9_err_pct"] = fig9ErrPct(so.Report.Fig9)
	out.Counts["obs.exemplars"] = float64(len(so.Exemplars))
	dir := rc.outDir
	out.seal = func() (string, error) { return hashDir(dir) }
	return out, nil
}

// hashDir hashes the lines of every data export in dir — CSVs, metrics
// and spans — file names included. Lines are hashed in sorted order so
// that the per-node row order of tied nodes (see sortedByNode) cannot
// move the digest; the two rendered reports, which draw those rows in
// order, stay out of it. The golden check compares the CSVs byte for
// byte regardless.
func hashDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	h := sha256.New()
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "report.txt" || e.Name() == "report.html" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		lines := bytes.Split(b, []byte("\n"))
		sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		for _, l := range lines {
			h.Write(l)
			h.Write([]byte("\n"))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkGolden compares the CSVs in dir with testdata/golden, byte for
// byte, both ways.
func checkGolden(dir, goldenDir string) error {
	want, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
	if err != nil {
		return err
	}
	if len(want) == 0 {
		return fmt.Errorf("no golden CSVs in %s", goldenDir)
	}
	got, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("study wrote %d CSVs, golden has %d", len(got), len(want))
	}
	for _, w := range want {
		name := filepath.Base(w)
		a, err := os.ReadFile(w)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("golden %s not produced: %w", name, err)
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s differs from testdata/golden (%d vs %d bytes)", name, len(b), len(a))
		}
	}
	return nil
}

// runCellsSerial calls every public cell method of the study once, in
// matrix order, on one fresh Study with one worker — the traced run's
// per-cell timing pass for study-observed.
func runCellsSerial(rc *repCtx) error {
	cfg := observedConfig(rc)
	cfg.Workers = 1
	s := fesplit.NewStudy(cfg)
	cells := []struct {
		name string
		fn   func() error
	}{
		{"fig3", func() error { _, err := s.Fig3(); return err }},
		{"fig4", func() error { _, err := s.Fig4(); return err }},
		{"fig5", func() error { _, err := s.Fig5(); return err }},
		{"figA", func() error { _, err := s.Fig6(); return err }},
		{"fig9", func() error { _, err := s.Fig9(); return err }},
		{"caching", func() error { _, err := s.Caching(); return err }},
		{"term-effect", func() error { _, err := s.TermEffect(); return err }},
		{"interactive", func() error { _, err := s.Interactive("cloud computing performance"); return err }},
		{"model-validation", func() error { _, err := s.ModelValidation(); return err }},
		{"wireless", func() error { _, err := s.Wireless(); return err }},
		{"queue-overload", func() error { _, err := s.Overload(); return err }},
		{"queue-hotspot", func() error { _, err := s.Hotspot(); return err }},
		{"queue-failover", func() error { _, err := s.Failover(); return err }},
		{"queue-capacity", func() error { _, err := s.Capacity(); return err }},
	}
	for _, c := range cells {
		end := rc.sp.begin("cell:" + c.name)
		err := c.fn()
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}
