// Package baseline implements the comparison points the paper's
// findings rest on:
//
//   - Direct: clients fetch straight from the back-end data center with
//     no front-end at all — the "without TCP splitting" comparator of
//     Pathak et al. [9], which motivates FE deployment in the first
//     place.
//   - PlacementSweep: a controlled client—FE—BE line topology where the
//     FE slides between the client and the data center, exposing the
//     paper's central trade-off — below a distance threshold, moving
//     the FE closer to the user no longer improves end-to-end delay,
//     which becomes dominated by the FE-BE fetch time.
package baseline

import (
	"fmt"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// DirectResult is one node's outcome when querying the data center
// directly.
type DirectResult struct {
	Node    simnet.HostID
	RTT     time.Duration // client↔BE round trip
	Overall time.Duration // median overall delay over the repeats
	N       int
}

// RunDirect runs the no-FE baseline: every vantage node queries its
// nearest back-end data center directly; the data center serves the
// full page (no static-prefix caching, no split TCP). It returns one
// result per node with at least one completed query.
func RunDirect(depCfg cdn.Config, nodes int, fleetSeed int64, repeats int,
	interval time.Duration, querySeed int64) ([]DirectResult, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("baseline: need at least one vantage node, got %d", nodes)
	}
	depCfg.BEOptions.ServeFullPage = true
	// Cold public-Internet clients get the era-faithful initial window
	// (RFC 3390), not the warm intra-cloud one.
	depCfg.BEOptions.TCP = tcpsim.Config{InitialCwnd: 3}
	sim := simnet.New(querySeed + 31)
	net := simnet.NewNetwork(sim)
	dep, err := cdn.Build(net, depCfg)
	if err != nil {
		return nil, err
	}
	fleet := vantage.NewFleet(nodes, geo.WorldMetros(), vantage.CampusProfile(), fleetSeed)
	fleet.WireToBEs(dep)

	gen := workload.NewGenerator(querySeed)
	queries := gen.Corpus(repeats, workload.ClassGranular)

	type acc struct {
		overall []float64
		rtt     time.Duration
	}
	accs := make(map[simnet.HostID]*acc, nodes)
	for i, node := range fleet.Nodes {
		node := node
		be := dep.NearestBEToClient(node.Point)
		a := &acc{rtt: net.RTT(node.Host, be.Host())}
		accs[node.Host] = a
		ep := tcpsim.NewEndpoint(net, node.Host, tcpsim.Config{})
		start := time.Duration(i%97) * 103 * time.Millisecond
		for k := 0; k < repeats; k++ {
			q := queries[k%len(queries)]
			at := start + time.Duration(k)*interval
			sim.ScheduleAt(at, func() {
				issued := sim.Now()
				httpsim.Get(ep, be.Host(), backend.BEPort, httpsim.NewGet(dep.Name, q.Path()),
					httpsim.ResponseCallbacks{
						OnDone: func(*httpsim.Response) {
							a.overall = append(a.overall, float64(sim.Now()-issued))
						},
					})
			})
		}
	}
	sim.Run()

	out := make([]DirectResult, 0, nodes)
	for _, node := range fleet.Nodes {
		a := accs[node.Host]
		if len(a.overall) == 0 {
			continue
		}
		out = append(out, DirectResult{
			Node:    node.Host,
			RTT:     a.rtt,
			Overall: time.Duration(stats.Median(a.overall)),
			N:       len(a.overall),
		})
	}
	return out, nil
}

// PlacementPoint is one FE position in the sweep.
type PlacementPoint struct {
	// Fraction of the client→BE distance at which the FE sits:
	// 0 = co-located with the client, 1 = co-located with the BE.
	Fraction float64
	// ClientFEMiles and FEBEMiles are the resulting leg lengths.
	ClientFEMiles, FEBEMiles float64
	// RTTClientFE is the measured handshake RTT of the first leg.
	RTTClientFE time.Duration
	// N is how many of the position's queries completed. Overall and
	// MedTdynamic are medians over exactly those N queries, so both are
	// zero — no sample, not a delay — when N is 0.
	N int
	// Overall is the median user-perceived delay.
	Overall time.Duration
	// MedTdynamic is the median time from the GET's ACK to the first
	// dynamic content byte — the paper's Tdynamic, which below the
	// placement threshold is governed by the FE-BE fetch alone.
	MedTdynamic time.Duration
	// Fetches is how many fetches the FE finished (a fetch can finish
	// for a query the lossy client leg never completes); MedFetch is the
	// FE's median ground-truth fetch time over them.
	Fetches  int
	MedFetch time.Duration
}

// SweepConfig parameterizes PlacementSweep.
type SweepConfig struct {
	// TotalMiles is the client↔BE distance (default 2000).
	TotalMiles float64
	// Fractions are the FE positions to test (default 0.05..0.95).
	Fractions []float64
	// Repeats per position (default 15).
	Repeats int
	// Cost is the BE processing model (default Bing-like, where the
	// fetch dominates and the threshold effect is pronounced).
	Cost *workload.CostModel
	// ClientLoss is the loss rate on the client↔FE leg — raise it to
	// study the wireless scenario of the paper's Discussion section.
	ClientLoss float64
	// Seed drives the sweep's randomness.
	Seed int64
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.TotalMiles <= 0 {
		c.TotalMiles = 2000
	}
	if len(c.Fractions) == 0 {
		c.Fractions = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.95}
	}
	if c.Repeats <= 0 {
		c.Repeats = 15
	}
	if c.Cost == nil {
		m := backend.BingCostModel()
		c.Cost = &m
	}
	return c
}

// PlacementSweep measures end-to-end delay as the FE slides along a
// straight client—BE path. Each position runs in a fresh simulation so
// positions are independent and identically seeded.
func PlacementSweep(cfg SweepConfig) ([]PlacementPoint, error) {
	cfg = cfg.withDefaults()
	if !(cfg.ClientLoss >= 0 && cfg.ClientLoss < 1) {
		return nil, fmt.Errorf("baseline: client loss rate %v outside [0,1)", cfg.ClientLoss)
	}
	delays := geo.WideAreaFEBEDelayModel()
	clientDelay := geo.DefaultDelayModel()
	out := make([]PlacementPoint, 0, len(cfg.Fractions))
	for _, f := range cfg.Fractions {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("baseline: fraction %v outside [0,1]", f)
		}
		cfMiles := cfg.TotalMiles * f
		fbMiles := cfg.TotalMiles * (1 - f)

		sim := simnet.New(cfg.Seed + 91)
		net := simnet.NewNetwork(sim)
		spec := workload.DefaultContentSpec("sweep")
		if _, err := backend.New(net, "be", geo.Site{Name: "be"}, spec, *cfg.Cost,
			backend.Options{}, cfg.Seed+1); err != nil {
			return nil, err
		}
		fe, err := frontend.New(net, frontend.Config{
			Host:   "fe",
			Site:   geo.Site{Name: "fe"},
			BEHost: "be",
			Static: spec.StaticPrefix(),
			Load:   frontend.LoadModel{Mean: 10 * time.Millisecond, CV: 0.1},
			Seed:   cfg.Seed + 2,
		})
		if err != nil {
			return nil, err
		}
		net.SetLink("client", "fe", simnet.PathParams{
			Delay:    clientDelay.OneWay(cfMiles),
			LossRate: cfg.ClientLoss,
		})
		net.SetLink("fe", "be", simnet.PathParams{Delay: delays.OneWay(fbMiles)})
		fe.Prewarm(1)

		ep := tcpsim.NewEndpoint(net, "client", tcpsim.Config{})
		gen := workload.NewGenerator(cfg.Seed + 3)
		rtt := net.RTT("client", "fe")
		dynStart := len(spec.StaticPrefix()) // body offset of the first dynamic byte
		var overall, tdyn []float64
		for k := 0; k < cfg.Repeats; k++ {
			q := gen.Query(workload.ClassGranular)
			at := time.Duration(k) * 2 * time.Second
			sim.ScheduleAt(at, func() {
				issued := sim.Now()
				received := 0
				var firstDyn time.Duration
				httpsim.Get(ep, "fe", frontend.FEPort, httpsim.NewGet("sweep", q.Path()),
					httpsim.ResponseCallbacks{
						OnBody: func(b []byte) {
							before := received
							received += len(b)
							if before <= dynStart && received > dynStart {
								firstDyn = sim.Now()
							}
						},
						// A query is a sample of both medians once it
						// completes: a transfer the loss rate never lets
						// finish has no overall delay for its Tdynamic
						// to sit beside.
						OnDone: func(*httpsim.Response) {
							// Tdynamic := t5 − t2 ≈ first-dynamic − (issued + RTT).
							tdyn = append(tdyn, float64(firstDyn-issued-rtt))
							overall = append(overall, float64(sim.Now()-issued))
						},
					})
			})
		}
		sim.Run()

		var fetch []float64
		for _, ft := range fe.FetchTimes() {
			fetch = append(fetch, float64(ft))
		}
		out = append(out, PlacementPoint{
			Fraction:      f,
			ClientFEMiles: cfMiles,
			FEBEMiles:     fbMiles,
			RTTClientFE:   rtt,
			N:             len(overall),
			Overall:       time.Duration(stats.Median(overall)),
			MedTdynamic:   time.Duration(stats.Median(tdyn)),
			Fetches:       len(fetch),
			MedFetch:      time.Duration(stats.Median(fetch)),
		})
	}
	return out, nil
}
