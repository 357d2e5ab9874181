package fesplit

// This file holds the load-aware back-end queueing scenarios: the study
// cells that exercise the replicated multi-server queue model
// (internal/backend.Cluster) and the FE-side connection pool under
// load. All four scenarios drive open-loop arrival campaigns
// (emulator.RunOpenLoop) so offered load is a pure function of the
// configuration — completions never throttle arrivals, which is what
// lets a surge actually overload the cluster. See docs/OPERATING.md §3.
//
//   - Overload: a traffic spike (4× arrival rate for a window) against
//     a capped queue — rejections, retries, and a Tdynamic tail that
//     tracks queue depth.
//   - Hotspot: an expensive hot keyword replaces the corpus during the
//     window at an unchanged arrival rate — utilization, not rate,
//     overloads the cluster.
//   - Failover: mid-run, every FE fails over to the deployment's
//     farthest data center — Tdynamic steps up by the extra backbone
//     RTT while the queue stays calm.
//   - Capacity: the same steady workload against a shrinking replica
//     count — the p99 Tdynamic curve crosses the SLO as the cluster
//     saturates, the capacity-planning sweep.

import (
	"fmt"
	"strings"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/backend"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/stats"
	"fesplit/internal/workload"
)

// QueueBucket is one time bucket of an open-loop queueing scenario:
// arrival counts by outcome, the Tdynamic distribution of fully served
// queries, and the cluster state sampled at the bucket's end.
type QueueBucket struct {
	// StartS is the bucket's start, in sim seconds.
	StartS float64
	// Offered counts arrivals in the bucket; OK of them were served
	// with the full dynamic portion, Degraded got only the static
	// prefix (FE exhausted its 503 retries), Rejected were refused
	// outright with a 503 (FE pool admission).
	Offered, OK, Degraded, Rejected int
	// P50Ms / P99Ms summarize Tdynamic of the bucket's OK queries.
	P50Ms, P99Ms float64
	// QueueDepth and Utilization are the BE cluster's queue length and
	// busy-replica fraction sampled at the bucket's end instant.
	QueueDepth  int
	Utilization float64
}

// OverloadData is the traffic-spike scenario outcome.
type OverloadData struct {
	Service  string
	Replicas int
	QueueCap int
	// SurgeStartS / SurgeEndS bound the spike window (sim seconds).
	SurgeStartS, SurgeEndS float64
	Buckets                []QueueBucket
	// BERejected counts cluster-level 503s (before FE retries);
	// FERetries the retries the FEs issued against them; Degraded the
	// queries that still ended static-only after retries ran out.
	BERejected, FERetries, Degraded int
	MaxQueueDepth                   int
}

// HotspotData is the hot-keyword scenario outcome.
type HotspotData struct {
	Service  string
	Replicas int
	// HotTerms is the term count of the hot query — its service-time
	// multiplier relative to the corpus.
	HotTerms               int
	SurgeStartS, SurgeEndS float64
	Buckets                []QueueBucket
	MaxQueueDepth          int
}

// FailoverData is the FE-fleet failover scenario outcome.
type FailoverData struct {
	Service string
	// FailAtS is when every FE switched to its farthest BE.
	FailAtS float64
	// FromBE/ToBE name the first FE's data centers (representative —
	// the single-BE-per-FE mapping before, the farthest after).
	FromBE, ToBE string
	Buckets      []QueueBucket
	// PreP50Ms / PostP50Ms are the median Tdynamic before and after
	// the failover instant; the step is the extra backbone RTT.
	PreP50Ms, PostP50Ms float64
}

// CapacityPoint is one replica count of the capacity-planning sweep.
type CapacityPoint struct {
	Replicas      int
	Offered, OK   int
	Utilization   float64
	MaxQueueDepth int
	P50Ms, P99Ms  float64
	MeetsSLO      bool
}

// CapacityData is the capacity-planning sweep outcome: the same steady
// open-loop workload run against a shrinking cluster.
type CapacityData struct {
	Service string
	// SLOMs is the p99 Tdynamic objective: twice the uncontended p99
	// (the largest replica count swept) — capacity planning relative
	// to the service's own uncontended baseline.
	SLOMs float64
	// OfferedQPS is the fleet-wide steady arrival rate.
	OfferedQPS float64
	// Points are ordered by decreasing replica count.
	Points []CapacityPoint
	// MinReplicas is the smallest swept replica count whose p99 still
	// meets the SLO (0 if none does).
	MinReplicas int
}

// queueScenarioBase is the shared deployment of the overload, hotspot
// and capacity scenarios: the Bing-like service pinned to its Virginia
// data center (so every FE shares one cluster and the offered load
// concentrates), with the BE queue model enabled.
func (s *Study) queueScenarioBase(q backend.QueueOptions, pool frontend.PoolConfig) DeploymentConfig {
	cfg := cdn.SingleBE(BingLike(s.cfg.Seed+1), "bing-be-virginia")
	cfg.BEOptions.Queue = q
	cfg.FEPool = pool
	return cfg
}

// newQueueBuckets lays out a windowed scenario's empty time buckets.
func newQueueBuckets() []QueueBucket {
	buckets := make([]QueueBucket, queueHorizon/queueBucketWidth)
	for i := range buckets {
		buckets[i].StartS = (time.Duration(i) * queueBucketWidth).Seconds()
	}
	return buckets
}

// foldRecords folds a dataset's records into the buckets by arrival
// time. Records are classified by outcome against the content boundary:
// full dynamic portion (OK), static-only (Degraded), 503 (Rejected).
// Tdynamic quantiles summarize only OK records; tdyn is openLoop's
// per-record measurement.
func foldRecords(buckets []QueueBucket, ds *emulator.Dataset, tdyn []float64, boundary int) []QueueBucket {
	byBucket := make([][]float64, len(buckets))
	for i := range ds.Records {
		rec := &ds.Records[i]
		b := int(rec.IssuedAt / queueBucketWidth)
		if b < 0 || b >= len(buckets) {
			continue
		}
		buckets[b].Offered++
		switch {
		case rec.Status == 503:
			buckets[b].Rejected++
		case rec.Failed || rec.BodyLen <= boundary:
			buckets[b].Degraded++
		default:
			buckets[b].OK++
			if tdyn[i] >= 0 {
				byBucket[b] = append(byBucket[b], tdyn[i])
			}
		}
	}
	for i := range buckets {
		buckets[i].P50Ms = stats.Median(byBucket[i])
		buckets[i].P99Ms = stats.Quantile(byBucket[i], 0.99)
	}
	return buckets
}

// probeCluster samples the deployment's first BE cluster into the
// buckets at every bucket boundary (pure reads — the probes never
// perturb the simulation).
func probeCluster(r *emulator.Runner, buckets []QueueBucket) {
	cl := r.Dep.BEs[0].Cluster()
	for b := range buckets {
		r.Sim.ScheduleAt(time.Duration(b+1)*queueBucketWidth, func() {
			buckets[b].QueueDepth = cl.Waiting()
			buckets[b].Utilization = float64(cl.Busy()) / float64(cl.Replicas())
		})
	}
}

// openLoop is the one driver of the four queueing scenarios: it builds
// the scenario's observed world (simulator, fleet and query seeds at
// Seed+off, +1, +2), lets the scenario wire probes or a failover into
// it before anything runs, drives the 20-query-corpus open-loop
// campaign, and measures every record once — feeding the phase sketches
// and the critical-path observer under label (the scenarios offer no
// tail exemplars). tdyn[i] is record i's Tdynamic in ms when it was
// fully served (completed, not refused, carrying the dynamic portion
// past the content boundary, and parsing into session parameters), −1
// otherwise.
func (s *Study) openLoop(off int64, label string, cfg DeploymentConfig, nodes, boundary int,
	load emulator.OpenLoopOptions, before func(*emulator.Runner)) (runner *emulator.Runner, ds *emulator.Dataset, tdyn []float64, err error) {
	fold := analysis.NewFold(s.obsv.Registry(), cfg.Name, label, boundary, nil, DefaultBoundTolerance)
	runner, err = s.world(off, cfg, emulator.Options{Nodes: nodes, SnapPayloads: true, Obs: s.obsv, Measure: fold})
	if err != nil {
		return nil, nil, nil, err
	}
	if before != nil {
		before(runner)
	}
	load.QueriesPerNode = 20
	load.QuerySeed = s.cfg.Seed + off + 2
	ds = runner.RunOpenLoop(load)
	tdyn = make([]float64, len(ds.Records))
	for i := range ds.Records {
		rec := &ds.Records[i]
		tdyn[i] = -1
		if p, ok := fold.Consume(rec); ok && rec.Status != 503 && rec.BodyLen > boundary {
			tdyn[i] = ms(p.Tdynamic)
		}
	}
	return runner, ds, tdyn, nil
}

// Scenario pacing: these constants size the scenarios to overload a
// Bing-like cluster (mean service ≈ 200 ms) without paper-scale cost.
// They are part of the golden-CSV contract.
const (
	queueBucketWidth  = 4 * time.Second
	queueHorizon      = 48 * time.Second
	queueSurgeStart   = 16 * time.Second
	queueSurgeEnd     = 32 * time.Second
	queueScenarioNode = 32
)

// Overload runs the traffic-spike scenario: 32 nodes at a steady
// open-loop rate against a 6-replica capped cluster, with the arrival
// rate quadrupled inside the surge window. The cluster sheds load at
// the queue cap (503s), FEs retry with backoff, and the Tdynamic tail
// inside the window tracks the queue depth gauges.
func (s *Study) Overload() (*OverloadData, error) {
	const replicas, qcap = 6, 24
	cfg := s.queueScenarioBase(
		backend.QueueOptions{Replicas: replicas, QueueCap: qcap, Policy: backend.LeastOutstanding},
		frontend.PoolConfig{MaxConns: 8, QueueCap: 16, Retries: 2, Backoff: 25 * time.Millisecond},
	)
	boundary, err := s.boundaryFor(BingLike(s.cfg.Seed + 1))
	if err != nil {
		return nil, err
	}
	buckets := newQueueBuckets()
	runner, ds, tdyn, err := s.openLoop(110, "overload/"+cfg.Name, cfg, queueScenarioNode, boundary,
		emulator.OpenLoopOptions{
			Horizon:      queueHorizon,
			BaseInterval: 2 * time.Second,
			SurgeStart:   queueSurgeStart,
			SurgeEnd:     queueSurgeEnd,
			SurgeFactor:  4,
		}, func(r *emulator.Runner) { probeCluster(r, buckets) })
	if err != nil {
		return nil, err
	}
	be := runner.Dep.BEs[0]
	d := &OverloadData{
		Service:       cfg.Name,
		Replicas:      replicas,
		QueueCap:      qcap,
		SurgeStartS:   queueSurgeStart.Seconds(),
		SurgeEndS:     queueSurgeEnd.Seconds(),
		Buckets:       foldRecords(buckets, ds, tdyn, boundary),
		BERejected:    be.Rejected(),
		MaxQueueDepth: be.MaxQueueLen(),
	}
	for _, fe := range runner.Dep.FEs {
		d.FERetries += fe.BERetries()
		d.Degraded += fe.BERejectedFetches()
	}
	return d, nil
}

// Hotspot runs the hot-keyword scenario: the arrival rate never
// changes, but inside the surge window every node issues one expensive
// 16-term query instead of its corpus — per-query work, not query
// rate, saturates the 5-replica cluster. No queue cap: the effect is
// pure queueing delay, visible in the window's p99 and queue depth.
func (s *Study) Hotspot() (*HotspotData, error) {
	const replicas = 5
	hotKeywords := "rare archival corpus deep join of many heavy index shards scanned without cache locality"
	hot := workload.Query{
		Keywords: hotKeywords,
		Terms:    len(strings.Fields(hotKeywords)),
		Class:    workload.ClassComplex,
		Rank:     workload.NumRanks - 1,
		ID:       987654,
	}
	cfg := s.queueScenarioBase(
		backend.QueueOptions{Replicas: replicas, Policy: backend.LeastOutstanding},
		frontend.PoolConfig{},
	)
	boundary, err := s.boundaryFor(BingLike(s.cfg.Seed + 1))
	if err != nil {
		return nil, err
	}
	buckets := newQueueBuckets()
	runner, ds, tdyn, err := s.openLoop(120, "hotspot/"+cfg.Name, cfg, queueScenarioNode, boundary,
		emulator.OpenLoopOptions{
			Horizon:      queueHorizon,
			BaseInterval: 2 * time.Second,
			SurgeStart:   queueSurgeStart,
			SurgeEnd:     queueSurgeEnd,
			HotQuery:     hot,
		}, func(r *emulator.Runner) { probeCluster(r, buckets) })
	if err != nil {
		return nil, err
	}
	d := &HotspotData{
		Service:       cfg.Name,
		Replicas:      replicas,
		HotTerms:      hot.Terms,
		SurgeStartS:   queueSurgeStart.Seconds(),
		SurgeEndS:     queueSurgeEnd.Seconds(),
		Buckets:       foldRecords(buckets, ds, tdyn, boundary),
		MaxQueueDepth: runner.Dep.BEs[0].MaxQueueLen(),
	}
	return d, nil
}

// Failover runs the FE-fleet failover scenario against the full
// multi-BE Bing-like deployment (every BE an 8-replica cluster, far
// from saturation): mid-run, every FE switches to the data center
// farthest from its site. Tdynamic steps up by the extra backbone RTT
// while queue depth stays flat — distance, not load, explains the
// shift, and the be-rtt critical-path phase carries the blame.
func (s *Study) Failover() (*FailoverData, error) {
	failAt := queueHorizon / 2
	cfg := BingLike(s.cfg.Seed + 1)
	cfg.BEOptions.Queue = backend.QueueOptions{Replicas: 8, Policy: backend.LeastOutstanding}
	boundary, err := s.boundaryFor(cfg)
	if err != nil {
		return nil, err
	}
	d := &FailoverData{Service: cfg.Name, FailAtS: failAt.Seconds()}
	_, ds, tdyn, err := s.openLoop(130, "failover/"+cfg.Name, cfg, queueScenarioNode, boundary,
		emulator.OpenLoopOptions{Horizon: queueHorizon, BaseInterval: 2 * time.Second},
		func(r *emulator.Runner) {
			// Pre-wire every FE to its failover target, then schedule
			// the fleet-wide switch.
			for i, fe := range r.Dep.FEs {
				far := r.Dep.FarthestBE(fe.Site().Point)
				r.Dep.WireFEBE(fe, far)
				if i == 0 {
					d.FromBE = string(fe.BEHost())
					d.ToBE = string(far.Host())
				}
				r.Sim.ScheduleAt(failAt, func() { fe.SetBEHost(far.Host()) })
			}
		})
	if err != nil {
		return nil, err
	}
	d.Buckets = foldRecords(newQueueBuckets(), ds, tdyn, boundary)
	var pre, post []float64
	for i, v := range tdyn {
		switch {
		case v < 0:
		case ds.Records[i].IssuedAt < failAt:
			pre = append(pre, v)
		default:
			post = append(post, v)
		}
	}
	d.PreP50Ms = stats.Median(pre)
	d.PostP50Ms = stats.Median(post)
	return d, nil
}

// capacityReplicaSweep is the sweep order: decreasing, so the first
// point is the uncontended baseline the SLO derives from.
var capacityReplicaSweep = []int{8, 6, 5, 4, 3}

// Capacity runs the capacity-planning sweep: the identical steady
// open-loop workload (same seeds, same fleet, same arrival schedule)
// against a cluster of 8, 6, 5, 4 and 3 replicas. Utilization climbs
// as replicas are removed until the cluster saturates and the p99
// Tdynamic crosses the SLO — twice the uncontended (8-replica) p99.
func (s *Study) Capacity() (*CapacityData, error) {
	const (
		nodes    = 24
		interval = 1500 * time.Millisecond
		horizon  = 40 * time.Second
	)
	boundary, err := s.boundaryFor(BingLike(s.cfg.Seed + 1))
	if err != nil {
		return nil, err
	}
	d := &CapacityData{
		Service:    "bing-like",
		OfferedQPS: float64(nodes) / interval.Seconds(),
	}
	for _, replicas := range capacityReplicaSweep {
		cfg := s.queueScenarioBase(
			backend.QueueOptions{Replicas: replicas, Policy: backend.LeastOutstanding},
			frontend.PoolConfig{},
		)
		runner, ds, tdyn, err := s.openLoop(140, fmt.Sprintf("capacity/r%d", replicas), cfg, nodes, boundary,
			emulator.OpenLoopOptions{Horizon: horizon, BaseInterval: interval}, nil)
		if err != nil {
			return nil, err
		}
		be := runner.Dep.BEs[0]
		pt := CapacityPoint{
			Replicas:      replicas,
			Offered:       len(ds.Records),
			Utilization:   be.Cluster().Utilization(runner.Sim.Now()),
			MaxQueueDepth: be.MaxQueueLen(),
		}
		var served []float64
		for _, v := range tdyn {
			if v >= 0 {
				served = append(served, v)
			}
		}
		pt.OK = len(served)
		pt.P50Ms = stats.Median(served)
		pt.P99Ms = stats.Quantile(served, 0.99)
		d.Points = append(d.Points, pt)
	}
	// The SLO derives from the first (largest-replica) point: twice
	// the uncontended p99 — the knee the sweep is designed to cross.
	d.SLOMs = 2 * d.Points[0].P99Ms
	for i := range d.Points {
		p := &d.Points[i]
		p.MeetsSLO = p.P99Ms <= d.SLOMs
		if p.MeetsSLO && (d.MinReplicas == 0 || p.Replicas < d.MinReplicas) {
			d.MinReplicas = p.Replicas
		}
	}
	return d, nil
}
