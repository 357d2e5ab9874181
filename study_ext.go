package fesplit

import (
	"fmt"
	"math"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/core"
	"fesplit/internal/emulator"
	"fesplit/internal/stats"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// Extensions beyond the paper's numbered figures: the reviewer-requested
// term-count correlation, the Section-6 interactive "search as you
// type" probe, and the Discussion-section wireless last-mile what-if.

// TermEffectData is the query-complexity correlation for one service.
type TermEffectData struct {
	Service string
	Points  []analysis.TermPoint
	// SlopeMSPerTerm is the fitted per-term fetch cost.
	SlopeMSPerTerm float64
	R2             float64
}

// TermEffect measures how Tdynamic correlates with the number of terms
// in the query (reviewer #2's question) on both services, using
// small-RTT sessions against each service's default FEs with a
// mixed-complexity corpus.
func (s *Study) TermEffect() ([]*TermEffectData, error) {
	rep, err := s.runCells("term-effect/")
	return rep.TermEffect, err
}

// termEffectFor runs the term-count correlation for one service — the
// per-service cell of TermEffect.
func (s *Study) termEffectFor(cfg DeploymentConfig) (*TermEffectData, error) {
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	runner, err := s.world(81, cfg, emulator.Options{Nodes: min(s.cfg.Nodes, 60), SnapPayloads: true})
	if err != nil {
		return nil, err
	}
	// Mixed-complexity corpus: every class contributes.
	gen := workload.NewGenerator(s.cfg.Seed + 83)
	var queries []workload.Query
	for i := 0; i < s.cfg.QueriesPerNodeA; i++ {
		queries = append(queries, gen.Query(workload.Classes()[i%4]))
	}
	ds := runner.RunExperimentA(emulator.AOptions{
		QueriesPerNode: len(queries),
		Interval:       s.cfg.IntervalA,
		Queries:        queries,
	})
	params := analysis.ExtractDataset(ds, boundary)
	analysis.ObserveParams(s.obsv.Registry(), "term/"+cfg.Name, params)
	pts, fit := analysis.TermEffect(params, 40*time.Millisecond)
	return &TermEffectData{
		Service:        cfg.Name,
		Points:         pts,
		SlopeMSPerTerm: fit.Slope,
		R2:             fit.R2,
	}, nil
}

// InteractiveData summarizes the Section-6 search-as-you-type probe.
type InteractiveData struct {
	Service    string
	Keywords   string
	Keystrokes int
	// One TCP connection per keystroke, as the paper observes.
	Connections int
	// PerKeystroke Tdynamic values (ms), in typing order.
	PerKeystrokeTdynMS []float64
	// ModelHolds reports that every keystroke session parsed under the
	// basic split-TCP model (the paper's claim).
	ModelHolds bool
}

// Interactive reproduces the Section-6 probe on the Google-like service
// (the paper names Google's "search as you type").
func (s *Study) Interactive(keywords string) (*InteractiveData, error) {
	cfg := GoogleLike(s.cfg.Seed + 2)
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	runner, err := s.world(85, cfg, emulator.Options{Nodes: 6, SnapPayloads: true})
	if err != nil {
		return nil, err
	}
	fe := runner.Dep.FEs[0]
	node := runner.NearestNode(fe)
	ds := runner.Interactive(fe, node, keywords, 400*time.Millisecond)

	data := &InteractiveData{
		Service:    cfg.Name,
		Keywords:   keywords,
		Keystrokes: len(ds.Records),
		ModelHolds: true,
	}
	conns := map[uint16]bool{}
	for i := range ds.Records {
		rec := &ds.Records[i]
		conns[rec.Key.LocalPort] = true
		p, _, err := analysis.ExtractRecord(rec, boundary)
		if err != nil {
			data.ModelHolds = false
			continue
		}
		data.PerKeystrokeTdynMS = append(data.PerKeystrokeTdynMS,
			float64(p.Tdynamic)/float64(time.Millisecond))
	}
	data.Connections = len(conns)
	return data, nil
}

// ModelValidationData quantifies how well the paper's analytic model
// predicts the measured per-node parameters.
type ModelValidationData struct {
	Service string
	Nodes   int
	// Median absolute prediction error (ms) for Tdynamic and Tdelta
	// across nodes, using each node's RTT, the service's median
	// ground-truth fetch and the known content sizes as model inputs.
	MedAbsErrTdynMS  float64
	MedAbsErrDeltaMS float64
	// Within10ms is the fraction of nodes whose Tdynamic prediction
	// lands within 10 ms of the measurement.
	Within10ms float64
}

// ModelValidation runs the fixed-FE experiment on the Google-like
// service and compares every node's measured (Tdynamic, Tdelta) medians
// against the analytic model's predictions — the "correctness of the
// model is validated" step, quantified.
func (s *Study) ModelValidation() (*ModelValidationData, error) {
	cfg := GoogleLike(s.cfg.Seed + 2)
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	runner, err := s.world(91, cfg, emulator.Options{Nodes: min(s.cfg.Nodes, 60), SnapPayloads: true})
	if err != nil {
		return nil, err
	}
	fe := runner.Dep.FEs[0]
	ds, err := runner.RunExperimentB(emulator.BOptions{
		FE: fe, Repeats: max(s.cfg.RepeatsB/20, 6), Interval: s.cfg.IntervalB,
		QuerySeed: s.cfg.Seed + 93,
	})
	if err != nil {
		return nil, err
	}
	params := analysis.ExtractDataset(ds, boundary)
	nodes := analysis.PerNode(params)

	// Model inputs shared across nodes: the service's median fetch
	// (ground truth) and FE delay, and the content sizes.
	var fetchNS []float64
	for _, f := range ds.FEFetchTimes[fe.Host()] {
		fetchNS = append(fetchNS, float64(f))
	}
	medFetch := time.Duration(stats.Median(fetchNS))
	feDelay := cfg.FELoad.Mean
	staticBytes := boundary
	dynBytes := cfg.Spec.DynamicBase + cfg.Spec.DynamicPerTerm*4

	var errDyn, errDelta []float64
	within := 0
	for _, n := range nodes {
		pred, err := core.Predict(core.Inputs{
			RTT:          n.RTT,
			FEDelay:      feDelay,
			Fetch:        medFetch,
			StaticBytes:  staticBytes,
			DynamicBytes: dynBytes,
		})
		if err != nil {
			return nil, err
		}
		eDyn := math.Abs(float64(pred.Tdynamic()-n.MedDynamic)) / 1e6
		eDelta := math.Abs(float64(pred.Tdelta()-n.MedDelta)) / 1e6
		errDyn = append(errDyn, eDyn)
		errDelta = append(errDelta, eDelta)
		if eDyn <= 10 {
			within++
		}
	}
	return &ModelValidationData{
		Service:          cfg.Name,
		Nodes:            len(nodes),
		MedAbsErrTdynMS:  stats.Median(errDyn),
		MedAbsErrDeltaMS: stats.Median(errDelta),
		Within10ms:       float64(within) / float64(len(nodes)),
	}, nil
}

// WirelessData compares campus and wireless last miles.
type WirelessData struct {
	Service string
	// Medians of per-node median overall delay (ms).
	CampusOverallMS   float64
	WirelessOverallMS float64
	// Retransmission totals observed client-side.
	CampusRetrans   int
	WirelessRetrans int
}

// Wireless runs the Discussion-section what-if: the same fleet and
// workload over a campus wired profile versus a lossy higher-latency
// wireless profile, on the Google-like service. Placing FEs close to
// users matters far more when the last hop loses packets.
func (s *Study) Wireless() (*WirelessData, error) {
	rep, err := s.runCells("wireless/")
	if err == nil {
		err = finishWireless(rep.Wireless)
	}
	if err != nil {
		return nil, err
	}
	return rep.Wireless, nil
}

// wirelessRun executes the what-if campaign under one access profile —
// the per-profile cell of Wireless — and returns the median of per-node
// median overall delays (ms) and the client-side retransmission count.
func (s *Study) wirelessRun(profile vantage.AccessProfile) (overallMS float64, retrans int, err error) {
	cfg := GoogleLike(s.cfg.Seed + 2)
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return 0, 0, err
	}
	runner, err := s.world(87, cfg, emulator.Options{Nodes: min(s.cfg.Nodes, 60), Access: profile, SnapPayloads: true})
	if err != nil {
		return 0, 0, err
	}
	ds := runner.RunExperimentA(emulator.AOptions{
		QueriesPerNode: s.cfg.QueriesPerNodeA,
		Interval:       s.cfg.IntervalA,
		QuerySeed:      s.cfg.Seed + 89,
	})
	params := analysis.ExtractDataset(ds, boundary)
	nodes := analysis.PerNode(params)
	var meds []float64
	for _, n := range nodes {
		meds = append(meds, float64(n.MedOverall)/float64(time.Millisecond))
	}
	// Count retransmissions from the captured traces.
	for _, tr := range ds.Traces {
		for _, ev := range tr.Events {
			if ev.Retransmitted() {
				retrans++
			}
		}
	}
	return stats.Median(meds), retrans, nil
}

// finishWireless is the cell table's one cross-row step: the what-if's
// two legs land in one WirelessData, and the verdict only holds when
// the wireless leg is the slower one.
func finishWireless(w *WirelessData) error {
	if w.WirelessOverallMS <= w.CampusOverallMS {
		return fmt.Errorf("fesplit: wireless (%f ms) not slower than campus (%f ms)",
			w.WirelessOverallMS, w.CampusOverallMS)
	}
	return nil
}
