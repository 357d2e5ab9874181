package fesplit

import (
	"fmt"
	"strings"

	"fesplit/internal/obs"
	"fesplit/internal/shard"
	"fesplit/internal/vantage"
)

// This file is the parallel study runner: RunAll (and its observed
// variant) decompose the study into a fixed matrix of independent
// cells — (service × figure experiment) at this level, with the
// default-FE campaign further split into node batches inside its cells
// (see emulator.RunShardedA) — and execute the matrix on
// StudyConfig.Workers goroutines via internal/shard.
//
// The reproducibility contract: the cell matrix, every seed, and the
// merge order are pure functions of StudyConfig; Workers only schedules
// the cells. Two runs of the same config therefore produce
// byte-identical figures, metrics dumps and reports for ANY worker
// counts — the property study_parallel_test.go pins down.
//
// Each cell runs on its own sub-Study: its own memoization caches, its
// own observer, its own simulated worlds. Cells share nothing mutable,
// which is what makes the matrix race-free without a single lock; the
// cheap shared derivations (content boundaries) are recomputed per cell
// and are identical by determinism. Results merge in canonical cell
// order after the pool drains: figure slices by service order,
// registries via obs.Registry.Merge, tail exemplars re-ranked across
// the union via obs.MergeTailSamplers.

// StudyOutput is everything an observed study run produces: the report,
// the merged metrics of every cell, and the fleet-wide tail exemplars.
type StudyOutput struct {
	// Report holds every figure, exactly as RunAll returns it.
	Report *Report
	// Metrics is the canonical-order merge of all per-cell registries:
	// simulator/TCP/FE/BE counters from the observed campaigns, the
	// dimensional session-parameter sketches (service-labeled for the
	// default-FE campaign, "fig5/"-, "fig9/"- and "term/"-prefixed for
	// the other param-bearing cells), and study_cell_runs_total.
	Metrics *MetricsRegistry
	// Exemplars are the tail-latency and bound-violation span trees of
	// the default-FE campaigns, re-ranked against the merged fleet-wide
	// Tdynamic distribution after the shard join.
	Exemplars []Exemplar
}

// Spans returns the exemplars' span trees as a tracer, ready for
// WriteSpansJSONL.
func (o *StudyOutput) Spans() *SpanTracer {
	tr := obs.NewTracer()
	for _, e := range o.Exemplars {
		tr.Add(e.Span)
	}
	return tr
}

// studyCell is one row of the study matrix: an independent unit of work
// that runs on a study and writes its result into the report.
type studyCell struct {
	name string
	run  func(cs *Study, rep *Report) error
}

// cells is the definition of the study matrix: every cell's name, its
// position and the report field it writes. The order is the canonical
// merge order of registries and tail samplers, so it is part of every
// exported byte. Each row writes only its own field (or slice element)
// of a report shaped by newReport, so concurrent rows need no
// synchronization beyond the pool's completion barrier.
func (s *Study) cells() []studyCell {
	svcs := s.serviceConfigs()
	list := []studyCell{
		{"fig3", func(cs *Study, rep *Report) (err error) {
			rep.Fig3, err = cs.Fig3()
			return
		}},
		{"fig4", func(cs *Study, rep *Report) (err error) {
			rep.Fig4, err = cs.Fig4()
			return
		}},
	}
	for i, cfg := range svcs {
		list = append(list, studyCell{"fig5/" + cfg.Name, func(cs *Study, rep *Report) (err error) {
			rep.Fig5[i], err = cs.fig5For(cfg)
			return
		}})
	}
	for i, cfg := range svcs {
		list = append(list, studyCell{"figA/" + cfg.Name, func(cs *Study, rep *Report) error {
			expA, err := cs.experimentA(cfg)
			if err != nil {
				return err
			}
			rep.Fig6[i] = fig6From(cfg, expA)
			rep.Fig7[i] = fig7From(cfg, expA)
			rep.Fig8[i] = fig8From(cfg, expA)
			return nil
		}})
	}
	for i, cfg := range s.fig9Setups() {
		list = append(list, studyCell{"fig9/" + cfg.Name, func(cs *Study, rep *Report) (err error) {
			rep.Fig9[i], err = cs.fig9For(cfg)
			return
		}})
	}
	list = append(list,
		studyCell{"caching/deployed", func(cs *Study, rep *Report) (err error) {
			rep.Caching.Deployed, err = cs.cachingRun(false)
			return
		}},
		studyCell{"caching/control", func(cs *Study, rep *Report) (err error) {
			rep.Caching.Control, err = cs.cachingRun(true)
			return
		}},
	)
	for i, cfg := range svcs {
		list = append(list, studyCell{"term-effect/" + cfg.Name, func(cs *Study, rep *Report) (err error) {
			rep.TermEffect[i], err = cs.termEffectFor(cfg)
			return
		}})
	}
	return append(list,
		studyCell{"interactive", func(cs *Study, rep *Report) (err error) {
			rep.Interactive, err = cs.Interactive("cloud computing performance")
			return
		}},
		studyCell{"model-validation", func(cs *Study, rep *Report) (err error) {
			rep.ModelCheck, err = cs.ModelValidation()
			return
		}},
		// The what-if's two legs share one WirelessData; finishWireless
		// joins them once both have run.
		studyCell{"wireless/campus", func(cs *Study, rep *Report) (err error) {
			rep.Wireless.CampusOverallMS, rep.Wireless.CampusRetrans, err = cs.wirelessRun(vantage.CampusProfile())
			return
		}},
		studyCell{"wireless/wireless", func(cs *Study, rep *Report) (err error) {
			rep.Wireless.WirelessOverallMS, rep.Wireless.WirelessRetrans, err = cs.wirelessRun(vantage.WirelessProfile())
			return
		}},
		studyCell{"queue/overload", func(cs *Study, rep *Report) (err error) {
			rep.Overload, err = cs.Overload()
			return
		}},
		studyCell{"queue/hotspot", func(cs *Study, rep *Report) (err error) {
			rep.Hotspot, err = cs.Hotspot()
			return
		}},
		studyCell{"queue/failover", func(cs *Study, rep *Report) (err error) {
			rep.Failover, err = cs.Failover()
			return
		}},
		studyCell{"queue/capacity", func(cs *Study, rep *Report) (err error) {
			rep.Capacity, err = cs.Capacity()
			return
		}},
	)
}

// newReport returns the report shell the cell table writes into: the
// per-service slices sized to the two services, the two-row results
// (caching variants, wireless legs) allocated.
func (s *Study) newReport() *Report {
	return &Report{
		Config:     s.cfg,
		Fig5:       make([]*Fig5Data, 2),
		Fig6:       make([]*Fig6Data, 2),
		Fig7:       make([]*Fig7Data, 2),
		Fig8:       make([]*Fig8Data, 2),
		Fig9:       make([]*Fig9Data, 2),
		Caching:    &CachingData{Service: "google-like"},
		TermEffect: make([]*TermEffectData, 2),
		Wireless:   &WirelessData{Service: "google-like"},
	}
}

// runCells is the serial face of the table: it runs, in table order and
// on this study (so its memoized campaigns and boundaries are shared),
// the rows whose name starts with prefix, and returns the report they
// wrote into — the empty report on error. The public per-figure
// methods are this call plus a field selection.
func (s *Study) runCells(prefix string) (*Report, error) {
	rep := s.newReport()
	for _, c := range s.cells() {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		if err := c.run(s, rep); err != nil {
			return &Report{}, err
		}
	}
	return rep, nil
}

// RunAll executes every experiment of the study — on
// StudyConfig.Workers goroutines — and returns the full report.
func (s *Study) RunAll() (*Report, error) {
	out, err := s.runMatrix(false)
	if err != nil {
		return nil, err
	}
	return out.Report, nil
}

// RunAllObserved is RunAll with per-cell observability: each cell
// records into its own registry and tail sampler, and the shards merge
// in canonical cell order into one registry and one re-ranked exemplar
// set. The Report is identical to RunAll's — observation never
// perturbs the simulations.
func (s *Study) RunAllObserved() (*StudyOutput, error) {
	return s.runMatrix(true)
}

// runMatrix runs the cell matrix and merges the results.
func (s *Study) runMatrix(observed bool) (*StudyOutput, error) {
	if s.cfg.Workers < 0 {
		return nil, fmt.Errorf("fesplit: StudyConfig.Workers must be ≥ 1 (or 0 for auto), got %d",
			s.cfg.Workers)
	}
	cells := s.cells()
	rep := s.newReport()
	obsvs := make([]*obs.Observer, len(cells))
	tasks := make([]shard.Task, len(cells))
	for i, c := range cells {
		// Dispatched in reverse table order: the open-loop queue cells
		// are the longest and the table's last rows, and a worker pool
		// that starts its longest task last finishes late. Everything
		// merged afterwards still indexes by cell.
		tasks[len(cells)-1-i] = shard.Task{Name: c.name, Run: func() error {
			cs := NewStudy(s.cfg)
			cs.rt = s.rt // shared telemetry hub — atomic, pure observation
			if observed {
				cs.obsv = obs.NewTailObserver(obs.TailConfig{})
				obsvs[i] = cs.obsv
				cs.obsv.Reg.CounterVec("study_cell_runs_total",
					"study cells executed, by cell name", "cell").With(c.name).Inc()
			}
			return c.run(cs, rep)
		}}
	}
	var progress shard.Progress
	if s.rt != nil {
		s.rt.AddTasks(len(tasks))
		progress = s.rt
	}
	if err := shard.RunProgress(s.cfg.Workers, tasks, progress); err != nil {
		return nil, err
	}

	if err := finishWireless(rep.Wireless); err != nil {
		return nil, fmt.Errorf("wireless: %w", err)
	}
	out := &StudyOutput{Report: rep}
	if !observed {
		return out, nil
	}

	merged := obs.NewRegistry()
	samplers := make([]*obs.TailSampler, 0, len(obsvs))
	for i, o := range obsvs {
		if o == nil {
			continue
		}
		if err := merged.Merge(o.Reg); err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].name, err)
		}
		samplers = append(samplers, o.Tail)
	}
	out.Metrics = merged
	out.Exemplars = obs.MergeTailSamplers(samplers...).Select()
	return out, nil
}
