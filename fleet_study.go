package fesplit

import (
	"fmt"
	"io"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/stats"
)

// FleetStudyConfig scales the ephemeral-client fleet campaign: an
// open-loop diurnal arrival process over the Google-like deployment
// where clients exist only for the lifetime of their one query. Unlike
// StudyConfig.Nodes, Clients is a number of *arrivals*, not a
// materialized population — memory tracks peak concurrency, so a
// million-client multi-hour campaign runs in a flat heap.
type FleetStudyConfig struct {
	// Clients is the total arrival count across all batches.
	Clients int
	// Horizon is the diurnal curve's span of virtual time (the
	// compressed "day"). Default 10 minutes.
	Horizon time.Duration
	// Batches splits arrivals into strided independent worlds
	// (≤ 0 → emulator.DefaultNodeBatches). Part of the shard layout:
	// changing it changes the (still deterministic) results.
	Batches int
	// Workers caps the goroutines running batches (0 → NumCPU).
	Workers int
}

// Curve returns the campaign's diurnal rate curve over Horizon, with
// the mid-day peak rate whose diurnal integral yields Clients arrivals.
func (c FleetStudyConfig) Curve() emulator.DiurnalCurve {
	horizon := c.Horizon
	if horizon <= 0 {
		horizon = 10 * time.Minute
	}
	// DefaultDiurnalCurve integrates to 0.5375 × peak × horizon
	// (trapezoids over the 0.15/0.5/1/0.5/0.15 shape): invert it,
	// padded 2% so rounding never leaves the integral short — the
	// Clients cap truncates the excess exactly.
	peak := 1.02 * float64(c.Clients) / (0.5375 * horizon.Seconds())
	return emulator.DefaultDiurnalCurve(horizon, peak)
}

// FleetStudyResult is the folded outcome of a fleet campaign: campaign
// counters, streaming delay distributions, tail exemplars and the heap
// watermark — everything the study keeps from N clients is O(batches +
// exemplars), independent of N.
type FleetStudyResult struct {
	// Merged sums the per-batch campaign summaries.
	Merged emulator.FleetResult
	// Batches holds the per-batch summaries in batch order.
	Batches []*emulator.FleetResult
	// Overall and Dynamic are streaming sketches (milliseconds) of the
	// user-perceived delay and the extracted Tdynamic, merged in batch
	// order.
	Overall *stats.Sketch
	Dynamic *stats.Sketch
	// Extracted counts sessions that parsed into split-TCP parameters;
	// Violations counts inference-bound violations among them.
	Extracted  int
	Violations int
	// Exemplars is the merged tail selection (cloned spans — they
	// survived the campaign arenas).
	Exemplars []obs.Exemplar
	// HeapWatermark is the engine's peak live heap over the campaign
	// (0 when the study has no runtime attached).
	HeapWatermark uint64
}

// fleetStudySink folds one batch's records into mergeable accumulators
// at emission time. Everything it keeps is O(1) per batch: two quantile
// sketches, counters, and — inside the fold — a span arena plus the
// batch observer's bounded tail sampler, which clones only retained
// spans (the record's events and body are slab-owned and recycled right
// after Consume returns). The fold has no registry: the fleet keeps
// exemplars and delay sketches, not per-phase families.
type fleetStudySink struct {
	fold      *analysis.Fold
	overall   *stats.Sketch
	dynamic   *stats.Sketch
	extracted int
}

// Consume implements emulator.RecordSink.
func (k *fleetStudySink) Consume(rec *emulator.Record) {
	k.overall.Add(float64(rec.OverallDelay()) / float64(time.Millisecond))
	if p, ok := k.fold.Consume(rec); ok {
		k.extracted++
		k.dynamic.Add(float64(p.Tdynamic) / float64(time.Millisecond))
	}
}

// RunFleetStudy runs the ephemeral-client fleet campaign on the
// Google-like service: a boundary probe first (streaming folds measure
// records as they are dropped), then the sharded diurnal campaign with
// one streaming sink per batch, merged in batch order. For a fixed
// seed every output is identical whatever Workers is.
func (s *Study) RunFleetStudy(fc FleetStudyConfig) (*FleetStudyResult, error) {
	if fc.Clients <= 0 {
		return nil, fmt.Errorf("fesplit: fleet study needs Clients > 0")
	}
	cfg := GoogleLike(s.cfg.Seed + 2)
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	results, obsvs, sinks, err := emulator.RunFleet(emulator.FleetShardedOptions{
		SimSeed:    s.cfg.Seed + 101,
		Deployment: cfg,
		Fleet: emulator.FleetOptions{
			Clients:   fc.Clients,
			Curve:     fc.Curve(),
			QuerySeed: s.cfg.Seed + 102,
			FleetSeed: s.cfg.Seed + 103,
		},
		Batches: fc.Batches,
		Workers: fc.Workers,
		// The batch observer is tail-only: its sampler makes the runner
		// log and join the FE's ground truth and is the one the sink's
		// fold feeds. It carries no registry — nothing here would merge
		// or export one.
		Observe: func(int) *obs.Observer {
			return &obs.Observer{Tail: obs.NewTailSampler(obs.TailConfig{})}
		},
		Sink: func(_ int, o *obs.Observer) emulator.RecordSink {
			return &fleetStudySink{
				fold:    analysis.NewFold(nil, cfg.Name, cfg.Name, boundary, o.Tail, DefaultBoundTolerance),
				overall: stats.NewSketch(0),
				dynamic: stats.NewSketch(0),
			}
		},
		Runtime: s.rt,
	})
	if err != nil {
		return nil, err
	}
	out := &FleetStudyResult{
		Batches: results,
		Overall: stats.NewSketch(0),
		Dynamic: stats.NewSketch(0),
	}
	samplers := make([]*obs.TailSampler, len(sinks))
	for i, sink := range sinks {
		k := sink.(*fleetStudySink)
		out.Overall.Merge(k.overall)
		out.Dynamic.Merge(k.dynamic)
		out.Extracted += k.extracted
		out.Violations += k.fold.Violations
		// The span arena lives in the batch's fold, not in its runner.
		results[i].ArenaCap = k.fold.ArenaCap()
		samplers[i] = obsvs[i].Tail
	}
	out.Merged = emulator.MergeFleetResults(results...)
	out.Exemplars = obs.MergeTailSamplers(samplers...).Select()
	if s.rt != nil {
		out.HeapWatermark = s.rt.HeapWatermark()
	}
	return out, nil
}

// WriteFleetCSV renders the campaign summary as a deterministic CSV:
// one row per batch, then the merged totals with the streaming delay
// quantiles. Byte-identical for a fixed seed and batch count whatever
// the worker count.
func (r *FleetStudyResult) WriteFleetCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"row,arrivals,completed,rejected,slots,peak_live,peak_fe_log,arena_cap,extracted,violations,p50_overall_ms,p90_overall_ms,p99_overall_ms,p50_dynamic_ms,p99_dynamic_ms"); err != nil {
		return err
	}
	for i, b := range r.Batches {
		if _, err := fmt.Fprintf(w, "batch%d,%d,%d,%d,%d,%d,%d,%d,,,,,,,\n",
			i, b.Arrivals, b.Completed, b.Rejected, b.Slots, b.PeakLive, b.PeakFELog, b.ArenaCap); err != nil {
			return err
		}
	}
	m := r.Merged
	_, err := fmt.Fprintf(w, "total,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f\n",
		m.Arrivals, m.Completed, m.Rejected, m.Slots, m.PeakLive, m.PeakFELog, m.ArenaCap,
		r.Extracted, r.Violations,
		r.Overall.Quantile(0.5), r.Overall.Quantile(0.9), r.Overall.Quantile(0.99),
		r.Dynamic.Quantile(0.5), r.Dynamic.Quantile(0.99))
	return err
}
