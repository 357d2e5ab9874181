package fesplit

import (
	"fmt"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/backend"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// BoxPlot is the five-number summary with Tukey whiskers (Figure 8).
type BoxPlot = stats.BoxPlot

// StudyConfig scales the reproduction study.
type StudyConfig struct {
	// Seed drives every random choice; equal seeds reproduce the
	// study bit-identically.
	Seed int64
	// Nodes is the vantage fleet size (paper: 200–250).
	Nodes int
	// QueriesPerNodeA and IntervalA parameterize Experiment A
	// (default-FE, paper pacing: one query every 10 s).
	QueriesPerNodeA int
	IntervalA       time.Duration
	// RepeatsB and IntervalB parameterize Experiment B (fixed FE;
	// paper: 720 repeats).
	RepeatsB  int
	IntervalB time.Duration
	// Fig3Samples sequential queries per keyword class, smoothed with
	// a moving median of fig3Window (paper: 500 samples).
	Fig3Samples int
	// CachingRepeats per node for the Section-3 probe.
	CachingRepeats int
	// Workers caps the goroutines running study cells and node batches
	// (0 → runtime.NumCPU, negative → error). Workers schedules work,
	// nothing else: every figure, metrics dump and report is
	// byte-identical for Workers=1 and Workers=N. See docs/OPERATING.md §1.
	Workers int
	// NodeBatches splits the default-FE campaign (Figures 6–8) into
	// this many independent node-batch worlds (0 →
	// emulator.DefaultNodeBatches). Unlike Workers it IS part of the
	// shard layout: changing it changes the (still deterministic)
	// figure data, because batches are isolated simulations.
	NodeBatches int
	// BESlowdown, when > 0 and ≠ 1, scales both deployments' BE
	// processing-cost model (base and per-term) by this factor — a
	// controlled latency-regression injection for exercising the
	// `fesplit diff` gate (the be-proc critical-path phase must move,
	// nothing else should). Zero leaves the calibrated models untouched.
	BESlowdown float64
}

// DefaultStudyConfig is the full paper-scale configuration. A complete
// run on two workers takes 10–12 s of wall time and peaks at 0.47–0.52
// GB RSS on a 2-vCPU x86-64 box (go1.24).
func DefaultStudyConfig(seed int64) StudyConfig {
	return StudyConfig{
		Seed:            seed,
		Nodes:           250,
		QueriesPerNodeA: 20,
		IntervalA:       10 * time.Second,
		RepeatsB:        720,
		IntervalB:       10 * time.Second,
		Fig3Samples:     500,
		CachingRepeats:  20,
	}
}

// LightStudyConfig is a scaled-down configuration for tests, benches
// and quick exploration: the same shapes at ~1% of the compute.
func LightStudyConfig(seed int64) StudyConfig {
	return StudyConfig{
		Seed:            seed,
		Nodes:           50,
		QueriesPerNodeA: 6,
		IntervalA:       3 * time.Second,
		RepeatsB:        10,
		IntervalB:       3 * time.Second,
		Fig3Samples:     60,
		CachingRepeats:  6,
	}
}

// Study runs the reproduction experiments and caches shared datasets.
type Study struct {
	cfg        StudyConfig
	expA       map[string]*expAResult
	boundaries map[string]int
	// obsv, when non-nil, collects this study's metrics and tail
	// exemplars. Set only on the per-cell sub-studies RunAllObserved
	// spawns — a Study is not goroutine-safe, so observation is wired
	// per cell and merged in canonical order afterwards.
	obsv *obs.Observer
	// rt, when non-nil, receives wall-clock engine telemetry (event
	// rates, heap watermarks, fast-path activity, cell progress) from
	// every world this study builds. Unlike obsv it is shared across
	// cells — the engine is atomic — and it is pure observation: every
	// deterministic output is byte-identical with or without it.
	rt *rt.Engine
}

// NewStudy creates a study with the given configuration.
func NewStudy(cfg StudyConfig) *Study {
	return &Study{
		cfg:        cfg,
		expA:       make(map[string]*expAResult),
		boundaries: make(map[string]int),
	}
}

// world builds one cell's simulated world — the single place a Study
// constructs a Runner. The simulator is seeded Seed+off and the fleet is
// placed by Seed+off+1 (every cell's offsets pair up that way); opts
// carries what varies per cell: fleet size, access profile, payload
// snapping, and Obs for the cells whose worlds feed the study observer.
// Every cell reads packet timings only, so its world snaps (most via
// timingWorld); the probe, which analyses content, is the one that does
// not. Every world publishes to the telemetry hub (see SetRuntime).
func (s *Study) world(off int64, dep DeploymentConfig, opts emulator.Options) (*emulator.Runner, error) {
	opts.FleetSeed = s.cfg.Seed + off + 1
	opts.Runtime = s.rt
	return emulator.New(s.cfg.Seed+off, dep, opts)
}

// timingWorld is world for a cell that reads packet timings only: it
// takes cfg's boundary from the probe (boundaryFor) and builds a world
// that never builds response content and measures each record at that
// boundary as its connection closes.
func (s *Study) timingWorld(off int64, cfg DeploymentConfig, opts emulator.Options) (*emulator.Runner, int, error) {
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, 0, err
	}
	opts.SnapPayloads, opts.Measure = true, analysis.NewMeasurer(boundary)
	r, err := s.world(off, cfg, opts)
	return r, boundary, err
}

// boundaryFor derives (and caches) a service's static/dynamic content
// boundary with a small dedicated probe run: a handful of distinct
// queries from a node near its default FE, full payload capture, then
// cross-query content analysis. The boundary is a property of the
// service's content, so one probe serves every experiment, and every
// experiment's world is payload-snapped: content analysis happens here
// and nowhere else.
func (s *Study) boundaryFor(cfg DeploymentConfig) (int, error) {
	if b, ok := s.boundaries[cfg.Name]; ok {
		return b, nil
	}
	runner, err := s.world(71, cfg, emulator.Options{Nodes: 6})
	if err != nil {
		return 0, err
	}
	fe := runner.Dep.DefaultFE(runner.Fleet.Nodes[0].Point)
	node := runner.NearestNode(fe)
	merged := &emulator.Dataset{}
	for _, ds := range runner.KeywordSweep(fe, node, 2, 2*time.Second, s.cfg.Seed+73) {
		merged.Records = append(merged.Records, ds.Records...)
	}
	b := analysis.BoundaryFromDataset(merged)
	if b <= 0 {
		return 0, fmt.Errorf("fesplit: boundary probe failed for %s", cfg.Name)
	}
	s.boundaries[cfg.Name] = b
	return b, nil
}

// Config returns the study configuration.
func (s *Study) Config() StudyConfig { return s.cfg }

// SetRuntime attaches an engine-telemetry hub. Every simulated world
// the study subsequently builds publishes event counts, sim-time
// progress, fast-path activity and heap samples to it, and the cell
// matrix reports task progress. Telemetry never feeds back into the
// simulation: results are byte-identical with or without it.
func (s *Study) SetRuntime(e *rt.Engine) { s.rt = e }

// Runtime returns the attached telemetry hub (nil when unset).
func (s *Study) Runtime() *rt.Engine { return s.rt }

// serviceConfigs returns the two deployments under study, with the
// configured BE-slowdown injection (if any) applied to both.
func (s *Study) serviceConfigs() []DeploymentConfig {
	cfgs := []DeploymentConfig{BingLike(s.cfg.Seed + 1), GoogleLike(s.cfg.Seed + 2)}
	if f := s.cfg.BESlowdown; f > 0 && f != 1 {
		for i := range cfgs {
			cfgs[i].Cost.Base = time.Duration(float64(cfgs[i].Cost.Base) * f)
			cfgs[i].Cost.PerTerm = time.Duration(float64(cfgs[i].Cost.PerTerm) * f)
		}
	}
	return cfgs
}

type expAResult struct {
	params []Params
	nodes  []NodeSummary
}

// aSink folds one batch's default-FE records into mergeable
// accumulators at emission time, so the batch dataset can be dropped:
// analysis.Fold measures each record (and feeds the batch observer's
// sketches and tail sampler); the sink keeps the parameters.
type aSink struct {
	fold   *analysis.Fold
	params []Params
}

// Consume implements emulator.RecordSink.
func (k *aSink) Consume(rec *emulator.Record) {
	if p, ok := k.fold.Consume(rec); ok {
		k.params = append(k.params, p)
	}
}

// Measure implements emulator.Measurer, so the batch world measures each
// record as its connection closes.
func (k *aSink) Measure(rec *emulator.Record, events []capture.Event) { k.fold.Measure(rec, events) }

// experimentA runs (or returns the cached) default-FE experiment for a
// service: the fleet split into node batches (each an independent
// simulated world, see emulator.RunShardedA), every batch folding its
// records into a private aSink (parameters, sketches, tail offers) and
// dropping its dataset, so the campaign's live heap is one batch world.
// When the study is observed, each batch also records into its own
// observer. Accumulators, registries and tail samplers merge here in
// batch order — exactly equivalent to feeding every record serially —
// so the result is identical for any worker count.
func (s *Study) experimentA(cfg DeploymentConfig) (*expAResult, error) {
	if r, ok := s.expA[cfg.Name]; ok {
		return r, nil
	}
	// The boundary probe is an independent world; it runs before the
	// campaign because records are measured as they are dropped.
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	sopts := emulator.ShardedAOptions{
		SimSeed:    s.cfg.Seed + 11,
		Deployment: cfg,
		Runner:     emulator.Options{Nodes: s.cfg.Nodes, FleetSeed: s.cfg.Seed + 12, SnapPayloads: true, Runtime: s.rt},
		A: emulator.AOptions{
			QueriesPerNode: s.cfg.QueriesPerNodeA,
			Interval:       s.cfg.IntervalA,
			QuerySeed:      s.cfg.Seed + 13,
		},
		Batches: s.cfg.NodeBatches,
		Workers: s.cfg.Workers,
		Sink: func(_ int, o *obs.Observer) emulator.RecordSink {
			return &aSink{fold: analysis.NewFold(o.Registry(), cfg.Name, cfg.Name, boundary, o.TailSampler(), DefaultBoundTolerance)}
		},
	}
	if s.obsv != nil {
		sopts.Observe = func(int) *obs.Observer {
			return obs.NewTailObserver(s.obsv.Tail.Config())
		}
	}
	batchObs, batchSinks, err := emulator.RunShardedA(sopts)
	if err != nil {
		return nil, err
	}
	// Concatenating per-batch accumulators in batch order replays the
	// serial record order exactly.
	var params []Params
	for _, bs := range batchSinks {
		params = append(params, bs.(*aSink).params...)
	}
	if s.obsv != nil {
		// Batch tail samplers were fed during the run; fold them into
		// the study sampler in batch order (equivalent to the serial
		// Offer sequence — see obs.MergeTailSamplers).
		samplers := []*obs.TailSampler{s.obsv.Tail}
		for _, o := range batchObs {
			if err := s.obsv.Reg.Merge(o.Registry()); err != nil {
				return nil, err
			}
			samplers = append(samplers, o.Tail)
		}
		s.obsv.Tail = obs.MergeTailSamplers(samplers...)
		analysis.ObserveParams(s.obsv.Reg, cfg.Name, params)
	}
	res := &expAResult{params: params, nodes: analysis.PerNode(params)}
	s.expA[cfg.Name] = res
	return res, nil
}

// --- Figure 3 ---

// fig3Window is the moving-median window smoothing Figure 3's series
// (the paper's 10).
const fig3Window = 10

// Fig3Data holds the keyword-class effect series (milliseconds, moving
// medians) for one service.
type Fig3Data struct {
	Service  string
	Classes  []QueryClass
	Tstatic  map[QueryClass][]float64
	Tdynamic map[QueryClass][]float64
}

// Fig3 reproduces Figure 3: Tstatic and Tdynamic across sequential
// samples for four keyword classes against one fixed Bing-like FE.
func (s *Study) Fig3() (*Fig3Data, error) {
	cfg := BingLike(s.cfg.Seed + 1)
	runner, boundary, err := s.timingWorld(21, cfg, emulator.Options{Nodes: 8})
	if err != nil {
		return nil, err
	}
	fe := runner.Dep.DefaultFE(runner.Fleet.Nodes[0].Point)
	sweeps := runner.KeywordSweep(fe, runner.Fleet.Nodes[0],
		s.cfg.Fig3Samples, 2*time.Second, s.cfg.Seed+23)
	out := &Fig3Data{
		Service:  cfg.Name,
		Classes:  workload.Classes(),
		Tstatic:  map[QueryClass][]float64{},
		Tdynamic: map[QueryClass][]float64{},
	}
	for _, class := range out.Classes {
		var st, dy []float64
		for _, p := range analysis.ExtractDataset(sweeps[class], boundary) {
			st = append(st, float64(p.Tstatic)/float64(time.Millisecond))
			dy = append(dy, float64(p.Tdynamic)/float64(time.Millisecond))
		}
		out.Tstatic[class] = stats.MovingMedian(st, fig3Window)
		out.Tdynamic[class] = stats.MovingMedian(dy, fig3Window)
	}
	return out, nil
}

// --- Figure 4 ---

// Fig4Event is one packet event on a client timeline.
type Fig4Event struct {
	AtMS    float64
	Send    bool
	Payload int
	Flags   string
}

// Fig4Row is one client's timeline.
type Fig4Row struct {
	RTTMS  float64
	Events []Fig4Event
}

// Fig4 reproduces Figure 4: packet-event timelines of one query from
// five clients at increasing RTTs to the same Bing-like FE, showing the
// static and dynamic clusters merging as RTT grows.
func (s *Study) Fig4() ([]Fig4Row, error) {
	// The paper's five sample RTTs.
	rtts := []time.Duration{
		10656 * time.Microsecond,
		30003 * time.Microsecond,
		86647 * time.Microsecond,
		160380 * time.Microsecond,
		243250 * time.Microsecond,
	}
	net, q, err := s.singleFEWorld(31, len(rtts))
	if err != nil {
		return nil, err
	}
	start := net.Sim().Now() // every client sends its SYN at the same instant
	recs := make([]*capture.Recorder, len(rtts))
	for i, rtt := range rtts {
		recs[i] = captureGet(net, simnet.HostID(fmt.Sprintf("fig4-client-%d", i)), rtt, q)
	}
	net.Sim().Run()
	rows := make([]Fig4Row, len(rtts))
	for i, rec := range recs {
		row := Fig4Row{RTTMS: ms(rtts[i])}
		for _, ev := range rec.Trace().Events {
			row.Events = append(row.Events, Fig4Event{
				AtMS:    ms(ev.Time - start),
				Send:    ev.Dir == tcpsim.DirSend,
				Payload: int(ev.Len),
				Flags:   ev.Flags.String(),
			})
		}
		rows[i] = row
	}
	return rows, nil
}

// CaptureSession runs one query from a client at the given RTT against
// a Bing-like FE and returns the client's packet trace — the library's
// "tcpdump one session" facility, usable with capture.Decode tooling.
func (s *Study) CaptureSession(rtt time.Duration) (*Trace, error) {
	net, q, err := s.singleFEWorld(35, 1)
	if err != nil {
		return nil, err
	}
	rec := captureGet(net, "client", rtt, q)
	net.Sim().Run()
	return rec.Trace(), nil
}

// singleFEWorld hand-wires the minimal Bing-like world Figure 4 and
// CaptureSession share: one BE and one FE 12 ms apart, the FE prewarmed
// for the given number of clients and the world settled for a second.
// Seeds Seed+off … Seed+off+3 drive the simulator, the BE, the FE and
// the generator of the granular query the clients send.
func (s *Study) singleFEWorld(off int64, clients int) (*simnet.Network, workload.Query, error) {
	sim := simnet.New(s.cfg.Seed + off)
	net := simnet.NewNetwork(sim)
	if s.rt != nil {
		sim.SetRuntime(s.rt)
	}
	spec := workload.DefaultContentSpec("bing-like")
	if _, err := backend.New(net, "be", geo.Site{Name: "be"}, spec,
		backend.BingCostModel(), backend.Options{}, s.cfg.Seed+off+1); err != nil {
		return nil, workload.Query{}, err
	}
	fe, err := frontend.New(net, frontend.Config{
		Host: "fe", BEHost: "be", Static: spec.StaticPrefix(),
		Load: frontend.SharedCDNLoadModel(), Seed: s.cfg.Seed + off + 2,
	})
	if err != nil {
		return nil, workload.Query{}, err
	}
	net.SetLink("fe", "be", simnet.PathParams{Delay: 12 * time.Millisecond})
	fe.Prewarm(clients)
	sim.RunFor(time.Second)
	return net, workload.NewGenerator(s.cfg.Seed + off + 3).Query(workload.ClassGranular), nil
}

// captureGet wires a client host at the given RTT from the single-FE
// world's FE, sends q on a fresh connection and returns the recorder
// tapping the client's packets.
func captureGet(net *simnet.Network, host simnet.HostID, rtt time.Duration, q workload.Query) *capture.Recorder {
	net.SetLink(host, "fe", simnet.PathParams{Delay: rtt / 2})
	ep := tcpsim.NewEndpoint(net, host, tcpsim.Config{})
	rec := capture.NewRecorder(string(host))
	ep.Tap = rec.Tap
	httpsim.Get(ep, "fe", frontend.FEPort, httpsim.NewGet("bing-like", q.Path()),
		httpsim.ResponseCallbacks{})
	return rec
}

// --- Figure 5 ---

// Fig5Data holds the fixed-FE per-node parameter distributions for one
// service, plus the Tdelta threshold and the inference-bounds check
// against ground truth.
type Fig5Data struct {
	Service     string
	FixedFE     string
	Nodes       []NodeSummary
	ThresholdMS float64
	HasThresh   bool
	// Inference validation (simulation-only ground truth).
	BoundLoMS, TruthMS, BoundHiMS float64
	BoundsOK                      bool
}

// Fig5 reproduces Figure 5 for both services: Tstatic, Tdynamic and
// Tdelta versus RTT with one fixed FE per service.
func (s *Study) Fig5() ([]*Fig5Data, error) {
	rep, err := s.runCells("fig5/")
	return rep.Fig5, err
}

// fig5For runs the fixed-FE campaign for one service — the per-service
// cell of Figure 5.
func (s *Study) fig5For(cfg DeploymentConfig) (*Fig5Data, error) {
	runner, boundary, err := s.timingWorld(41, cfg, emulator.Options{Nodes: s.cfg.Nodes})
	if err != nil {
		return nil, err
	}
	fe := runner.Dep.FEByHost(simnet.HostID(cfg.Name + "-fe-metro-chicago"))
	if fe == nil {
		fe = runner.Dep.FEs[0]
	}
	ds, err := runner.RunExperimentB(emulator.BOptions{
		FE: fe, Repeats: s.cfg.RepeatsB, Interval: s.cfg.IntervalB,
		QuerySeed: s.cfg.Seed + 43,
	})
	if err != nil {
		return nil, err
	}
	params := analysis.ExtractDataset(ds, boundary)
	analysis.ObserveParams(s.obsv.Registry(), "fig5/"+cfg.Name, params)
	nodes := analysis.PerNode(params)
	thr, hasThr := analysis.DeltaThreshold(nodes, 2*time.Millisecond)
	lo, truth, hi, ok := analysis.ValidateBounds(params, ds.Records)
	return &Fig5Data{
		Service:     cfg.Name,
		FixedFE:     string(fe.Host()),
		Nodes:       nodes,
		ThresholdMS: float64(thr) / float64(time.Millisecond),
		HasThresh:   hasThr,
		BoundLoMS:   lo, TruthMS: truth, BoundHiMS: hi, BoundsOK: ok,
	}, nil
}

// --- Figure 6 ---

// Fig6Data is the RTT CDF of nodes to their default FE for one service.
type Fig6Data struct {
	Service string
	// RTTsMS are the per-node median RTTs.
	RTTsMS []float64
	// FracUnder20ms is the paper's headline comparison point.
	FracUnder20ms float64
}

// Fig6 reproduces Figure 6: the CDF of client→default-FE RTTs for both
// services.
func (s *Study) Fig6() ([]*Fig6Data, error) {
	rep, err := s.runCells("figA/")
	return rep.Fig6, err
}

// fig6From derives the Figure-6 series from a service's default-FE
// campaign — a pure transform.
func fig6From(cfg DeploymentConfig, res *expAResult) *Fig6Data {
	var rtts []float64
	for _, n := range res.nodes {
		rtts = append(rtts, float64(n.RTT)/float64(time.Millisecond))
	}
	cdf := stats.NewECDF(rtts)
	return &Fig6Data{
		Service:       cfg.Name,
		RTTsMS:        rtts,
		FracUnder20ms: cdf.At(20),
	}
}

// --- Figure 7 ---

// Fig7Data holds default-FE Tstatic/Tdynamic distributions per node.
type Fig7Data struct {
	Service string
	Nodes   []NodeSummary
	// Medians and spread across nodes (ms) for the service-level
	// comparison.
	MedStaticMS, MedDynamicMS float64
	IQRStaticMS, IQRDynMS     float64
}

// Fig7 reproduces Figure 7: Tstatic and Tdynamic versus RTT with each
// node using its default FE, for both services.
func (s *Study) Fig7() ([]*Fig7Data, error) {
	rep, err := s.runCells("figA/")
	return rep.Fig7, err
}

// fig7From derives the Figure-7 distributions from a service's
// default-FE campaign.
func fig7From(cfg DeploymentConfig, res *expAResult) *Fig7Data {
	var st, dy []float64
	for _, n := range res.nodes {
		st = append(st, float64(n.MedStatic)/float64(time.Millisecond))
		dy = append(dy, float64(n.MedDynamic)/float64(time.Millisecond))
	}
	sSum, dSum := stats.Summarize(st), stats.Summarize(dy)
	return &Fig7Data{
		Service:      cfg.Name,
		Nodes:        res.nodes,
		MedStaticMS:  sSum.Median,
		MedDynamicMS: dSum.Median,
		IQRStaticMS:  sSum.IQR(),
		IQRDynMS:     dSum.IQR(),
	}
}

// --- Figure 8 ---

// Fig8Data holds per-node overall-delay box plots for one service.
type Fig8Data struct {
	Service string
	Nodes   []string
	Boxes   []BoxPlot
	// MedOverallMS is the service-level median of node medians.
	MedOverallMS float64
	// SpreadMS is the median node IQR — the variability comparison.
	SpreadMS float64
}

// Fig8 reproduces Figure 8: per-node box plots of the overall
// user-perceived delay for both services.
func (s *Study) Fig8() ([]*Fig8Data, error) {
	rep, err := s.runCells("figA/")
	return rep.Fig8, err
}

// fig8From derives the Figure-8 box plots from a service's default-FE
// campaign.
func fig8From(cfg DeploymentConfig, res *expAResult) *Fig8Data {
	d := &Fig8Data{Service: cfg.Name}
	var meds, iqrs []float64
	for _, n := range res.nodes {
		d.Nodes = append(d.Nodes, string(n.Node))
		bp := n.OverallDist
		// Convert to milliseconds for reporting.
		d.Boxes = append(d.Boxes, BoxPlot{
			Min: bp.Min / 1e6, Q1: bp.Q1 / 1e6, Median: bp.Median / 1e6,
			Q3: bp.Q3 / 1e6, Max: bp.Max / 1e6,
			WhiskerLow: bp.WhiskerLow / 1e6, WhiskerHigh: bp.WhiskerHigh / 1e6,
		})
		meds = append(meds, bp.Median/1e6)
		iqrs = append(iqrs, (bp.Q3-bp.Q1)/1e6)
	}
	d.MedOverallMS = stats.Median(meds)
	d.SpreadMS = stats.Median(iqrs)
	return d
}

// --- Figure 9 ---

const (
	// fig9RTTCap: only sessions with client RTT below this approximate
	// Tfetch by Tdynamic (paper Section 5).
	fig9RTTCap = 40 * time.Millisecond
	// fig9MileCap drops FEs farther than this from the data center —
	// the paper's revision "only consider[s] front-end servers close
	// enough to the BE servers" (its Figure-9 x-range is a few hundred
	// miles).
	fig9MileCap = 2000
)

// Fig9Data is the fetch-time factoring for one service.
type Fig9Data struct {
	Service string
	BE      string
	Result  FactorResult
}

// Fig9 reproduces Figure 9: regress Tdynamic (≈ Tfetch at small RTT)
// against FE↔BE distance for a single data center per service — Bing
// Virginia and Google Lenoir, as in the paper.
func (s *Study) Fig9() ([]*Fig9Data, error) {
	rep, err := s.runCells("fig9/")
	return rep.Fig9, err
}

// fig9Setups returns the two single-data-center probe deployments in
// canonical order: Bing Virginia, then the FE-densified Google Lenoir.
//
// The paper picks one data center per service and "consider[s] the
// geographically closest FE servers" to it. The Google-like fleet used
// elsewhere is deliberately sparse (Figure-6 calibration), which would
// leave this regression only ~3 points; the real 2011 Google ran far
// more FE sites than our sparse 5, so the probe densifies the
// google-like FE placement to every US metro. Placement density does
// not change what each FE measures — its own distance to the data
// center versus its local clients' Tdynamic — it only adds regression
// points.
func (s *Study) fig9Setups() []DeploymentConfig {
	googleProbe := cdn.SingleBE(GoogleLike(s.cfg.Seed+2), "google-be-lenoir")
	googleProbe.FESites = geo.USMetros()
	return []DeploymentConfig{cdn.SingleBE(BingLike(s.cfg.Seed+1), "bing-be-virginia"), googleProbe}
}

// fig9For runs one service's fetch-time factoring — the per-service
// cell of Figure 9.
func (s *Study) fig9For(cfg DeploymentConfig) (*Fig9Data, error) {
	runner, boundary, err := s.timingWorld(51, cfg, emulator.Options{Nodes: s.cfg.Nodes})
	if err != nil {
		return nil, err
	}
	ds := runner.RunExperimentA(emulator.AOptions{
		QueriesPerNode: s.cfg.QueriesPerNodeA,
		Interval:       s.cfg.IntervalA,
		QuerySeed:      s.cfg.Seed + 53,
	})
	params := analysis.ExtractDataset(ds, boundary)
	analysis.ObserveParams(s.obsv.Registry(), "fig9/"+cfg.Name, params)
	pts := analysis.Fig9Points(params, runner.Dep.FEBEDistances(), fig9RTTCap)
	kept := pts[:0]
	for _, p := range pts {
		if p.Miles <= fig9MileCap {
			kept = append(kept, p)
		}
	}
	return &Fig9Data{
		Service: cfg.Name,
		BE:      cfg.BESites[0].Name,
		Result:  analysis.FactorFetchCI(kept, 1000, s.cfg.Seed+54),
	}, nil
}

// --- Section 3: caching detection ---

// CachingData is the caching-probe outcome with its positive control.
type CachingData struct {
	Service string
	// Deployed is the verdict on the deployed (cache-less) service —
	// the paper finds no caching.
	Deployed CacheVerdict
	// Control is the verdict with a result cache deliberately enabled,
	// demonstrating the methodology detects one when present.
	Control CacheVerdict
}

// Caching reproduces the Section-3 experiment on the Google-like
// service, plus a cache-enabled positive control.
func (s *Study) Caching() (*CachingData, error) {
	rep, err := s.runCells("caching/")
	return rep.Caching, err
}

// cachingRun executes one caching-probe variant — deployed (cache off)
// or positive control (cache on). The two variants are independent
// worlds, which is what lets the cell matrix run them concurrently.
func (s *Study) cachingRun(cache bool) (CacheVerdict, error) {
	// The boundary is probed on the cache-free deployment; timingWorld
	// then finds it cached under the service's name.
	cfg := GoogleLike(s.cfg.Seed + 2)
	if _, err := s.boundaryFor(cfg); err != nil {
		return CacheVerdict{}, err
	}
	if cache {
		cfg.BEOptions = backend.Options{CacheResults: true, CacheHitTime: 2 * time.Millisecond}
	}
	runner, boundary, err := s.timingWorld(61, cfg, emulator.Options{Nodes: min(s.cfg.Nodes, 40)})
	if err != nil {
		return CacheVerdict{}, err
	}
	same, distinct := runner.CachingProbe(runner.Dep.FEs[0], s.cfg.CachingRepeats,
		2*time.Second, s.cfg.Seed+63)
	nearOnly := func(ps []Params) []Params {
		out := ps[:0:0]
		for _, p := range ps {
			if p.RTT <= 25*time.Millisecond {
				out = append(out, p)
			}
		}
		return out
	}
	sp := nearOnly(analysis.ExtractDataset(same, boundary))
	dp := nearOnly(analysis.ExtractDataset(distinct, boundary))
	if len(sp) == 0 || len(dp) == 0 {
		return CacheVerdict{}, fmt.Errorf("fesplit: caching probe found no near sessions")
	}
	return analysis.DetectCaching(sp, dp, 0.5), nil
}
