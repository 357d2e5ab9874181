// Package cdn assembles complete content-distribution deployments: a
// fleet of front-end servers, a set of back-end data centers, the
// network paths between them, and the DNS-style mapping that hands each
// client its nearest ("default") FE server.
//
// Two calibrated deployments mirror the paper's subjects:
//
//   - BingLike: a dense shared CDN (Akamai-style) — FE servers in every
//     metro, close to clients, but multi-tenant (loaded) and backed by
//     slow, variable back-ends reached over public-Internet paths.
//   - GoogleLike: a sparse dedicated FE fleet — slightly farther from
//     clients, but lightly loaded and backed by fast, stable back-ends.
package cdn

import (
	"fmt"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// Config specifies a deployment to build.
type Config struct {
	// Name brands the deployment ("bing-like", "google-like").
	Name string
	// FESites and BESites place the fleet.
	FESites []geo.Site
	BESites []geo.Site
	// Spec is the content layout; Cost the BE processing model.
	Spec workload.ContentSpec
	Cost workload.CostModel
	// FELoad models FE processing delay.
	FELoad frontend.LoadModel
	// ClientDelay maps client↔FE distance to delay; BackboneDelay maps
	// FE↔BE distance to delay.
	ClientDelay   geo.DelayModel
	BackboneDelay geo.DelayModel
	// FEBELoss is the packet loss rate on FE↔BE paths (the paper
	// attributes part of Bing's variability to public-Internet FE-BE
	// connection quality).
	FEBELoss float64
	// FEBEJitter is per-packet jitter on FE↔BE paths.
	FEBEJitter time.Duration
	// BEOptions passes through to each data center.
	BEOptions backend.Options
	// FEPool bounds each FE's BE connection pool with admission control
	// and 503 retry/backoff (zero value = legacy unbounded pool). Pairs
	// with BEOptions.Queue for the load-aware back-end scenarios.
	FEPool frontend.PoolConfig
	// Gzip makes FEs serve compressed responses (static and dynamic
	// portions as concatenated gzip members).
	Gzip bool
	// LengthOnly builds the deployment without response content: BEs
	// compute body lengths instead of bodies and FEs flush and forward
	// content-free bytes, so no layer builds, buffers or copies what no
	// client reads. Wire byte counts, timing and random draws equal the
	// materialised deployment's. Gzip deployments must stay materialised
	// (compressed size depends on content).
	LengthOnly bool
	// DisableSplitTCP builds FEs without persistent BE connections
	// (ablation).
	DisableSplitTCP bool
	// PrewarmConns persistent BE connections per FE before traffic.
	PrewarmConns int
	// Seed drives all deployment-local randomness.
	Seed int64
	// FETCP overrides the FE endpoint TCP config (e.g. initial cwnd
	// for the IW ablation).
	FETCP tcpsim.Config
}

// Deployment is a built service: its FE fleet, BE sites and the network
// they are wired into.
type Deployment struct {
	Name string
	Net  *simnet.Network
	FEs  []*frontend.Server
	BEs  []*backend.DataCenter

	cfg Config
	// feClients and beClients record the clients WireClient and
	// WireClientToBEs wired; the servers' path resolvers read them.
	feClients, beClients map[simnet.HostID]client
}

// client is one wired client: where it is and its access link.
type client struct {
	point          geo.Point
	access, jitter time.Duration
	loss           float64
}

// Build wires a deployment into the network.
func Build(n *simnet.Network, cfg Config) (*Deployment, error) {
	if len(cfg.FESites) == 0 || len(cfg.BESites) == 0 {
		return nil, fmt.Errorf("cdn: deployment %q needs FE and BE sites", cfg.Name)
	}
	d := &Deployment{Name: cfg.Name, Net: n, cfg: cfg,
		feClients: make(map[simnet.HostID]client),
		beClients: make(map[simnet.HostID]client),
	}

	beOpts := cfg.BEOptions
	beOpts.LengthOnly = cfg.LengthOnly
	for i, site := range cfg.BESites {
		host := simnet.HostID(fmt.Sprintf("%s-be-%s", cfg.Name, site.Name))
		dc, err := backend.New(n, host, site, cfg.Spec, cfg.Cost, beOpts,
			cfg.Seed+int64(1000+i))
		if err != nil {
			return nil, err
		}
		d.BEs = append(d.BEs, dc)
		d.resolveClients(host, site.Point, d.beClients)
	}

	static := cfg.Spec.StaticPrefix()
	for i, site := range cfg.FESites {
		host := simnet.HostID(fmt.Sprintf("%s-fe-%s", cfg.Name, site.Name))
		be := d.nearestBE(site.Point)
		fe, err := frontend.New(n, frontend.Config{
			Host:            host,
			Site:            site,
			BEHost:          be.Host(),
			Static:          static,
			Load:            cfg.FELoad,
			DisableSplitTCP: cfg.DisableSplitTCP,
			Gzip:            cfg.Gzip,
			LengthOnly:      cfg.LengthOnly,
			Seed:            cfg.Seed + int64(2000+i),
			TCP:             cfg.FETCP,
			BEPool:          cfg.FEPool,
		})
		if err != nil {
			return nil, err
		}
		// FE ↔ BE path: distance-derived delay, configured loss and
		// jitter (the public-Internet vs internal-backbone contrast).
		n.SetLink(host, be.Host(), simnet.PathParams{
			Delay:    cfg.BackboneDelay.OneWayBetween(site.Point, be.Site().Point),
			Jitter:   cfg.FEBEJitter,
			LossRate: cfg.FEBELoss,
		})
		d.resolveClients(host, site.Point, d.feClients)
		fe.Prewarm(cfg.PrewarmConns)
		d.FEs = append(d.FEs, fe)
	}
	return d, nil
}

// resolveClients makes the paths between the server host at p and the
// clients wired to it resolve on first use: one-way delay = the
// client's access delay plus the distance-derived wide-area delay.
func (d *Deployment) resolveClients(host simnet.HostID, p geo.Point, clients map[simnet.HostID]client) {
	d.Net.SetPathResolver(host, func(peer simnet.HostID) (simnet.PathParams, bool) {
		c, ok := clients[peer]
		if !ok {
			return simnet.PathParams{}, false
		}
		return simnet.PathParams{
			Delay:    c.access + d.cfg.ClientDelay.OneWayBetween(c.point, p),
			Jitter:   c.jitter,
			LossRate: c.loss,
		}, true
	})
}

// nearestBE returns the data center closest to p.
func (d *Deployment) nearestBE(p geo.Point) *backend.DataCenter {
	best := d.BEs[0]
	bestD := geo.DistanceMiles(p, best.Site().Point)
	for _, dc := range d.BEs[1:] {
		if dd := geo.DistanceMiles(p, dc.Site().Point); dd < bestD {
			best, bestD = dc, dd
		}
	}
	return best
}

// DefaultFE returns the FE a DNS resolution would hand a client at p:
// the geographically nearest one.
func (d *Deployment) DefaultFE(p geo.Point) *frontend.Server {
	best := d.FEs[0]
	bestD := geo.DistanceMiles(p, best.Site().Point)
	for _, fe := range d.FEs[1:] {
		if dd := geo.DistanceMiles(p, fe.Site().Point); dd < bestD {
			best, bestD = fe, dd
		}
	}
	return best
}

// FEByHost finds an FE by host ID, or nil.
func (d *Deployment) FEByHost(host simnet.HostID) *frontend.Server {
	for _, fe := range d.FEs {
		if fe.Host() == host {
			return fe
		}
	}
	return nil
}

// BEOf returns the data center serving the given FE.
func (d *Deployment) BEOf(fe *frontend.Server) *backend.DataCenter {
	return d.nearestBE(fe.Site().Point)
}

// WireFEBE lays a backbone path between an FE and an arbitrary BE of
// the deployment, using the deployment's calibrated backbone delay
// model, jitter and loss — the prerequisite for failing the FE over to
// a non-nearest data center (frontend.Server.SetBEHost). Build only
// wires each FE to its nearest BE.
func (d *Deployment) WireFEBE(fe *frontend.Server, be *backend.DataCenter) {
	d.Net.SetLink(fe.Host(), be.Host(), simnet.PathParams{
		Delay:    d.cfg.BackboneDelay.OneWayBetween(fe.Site().Point, be.Site().Point),
		Jitter:   d.cfg.FEBEJitter,
		LossRate: d.cfg.FEBELoss,
	})
}

// FarthestBE returns the data center farthest from p — the worst-case
// failover target.
func (d *Deployment) FarthestBE(p geo.Point) *backend.DataCenter {
	best := d.BEs[0]
	bestD := geo.DistanceMiles(p, best.Site().Point)
	for _, dc := range d.BEs[1:] {
		if dd := geo.DistanceMiles(p, dc.Site().Point); dd > bestD {
			best, bestD = dc, dd
		}
	}
	return best
}

// WireClient connects a client host at point p to every FE of the
// deployment: one-way delay = accessOneWay (the client's last-mile) plus
// the distance-derived wide-area delay. Each path is built when it
// carries its first packet, so wire the client before it sends. Call
// once per client per deployment.
func (d *Deployment) WireClient(host simnet.HostID, p geo.Point, accessOneWay, jitter time.Duration, loss float64) {
	d.feClients[host] = client{p, accessOneWay, jitter, loss}
}

// WireClientToBEs additionally connects a client directly to every BE —
// used only by the no-FE baseline (clients talking straight to the data
// center over the public Internet). As with WireClient, wire the
// client before it sends.
func (d *Deployment) WireClientToBEs(host simnet.HostID, p geo.Point, accessOneWay, jitter time.Duration, loss float64) {
	d.beClients[host] = client{p, accessOneWay, jitter, loss}
}

// NearestBEToClient returns the data center nearest to a client point
// (for the no-FE baseline).
func (d *Deployment) NearestBEToClient(p geo.Point) *backend.DataCenter {
	return d.nearestBE(p)
}

// SingleBE restricts a deployment config to one back-end site by name —
// the paper's Figure-9 setup considers a single data center per service
// (Bing Virginia, Google Lenoir NC) so FE↔BE distances span the full
// range. It panics on an unknown site name (a configuration bug).
func SingleBE(cfg Config, beName string) Config {
	for _, s := range cfg.BESites {
		if s.Name == beName {
			cfg.BESites = []geo.Site{s}
			return cfg
		}
	}
	panic(fmt.Sprintf("cdn: unknown BE site %q in deployment %q", beName, cfg.Name))
}

// FEBEDistances maps each FE host to its great-circle distance (miles)
// from its serving back-end — the x-axis of Figure 9.
func (d *Deployment) FEBEDistances() map[simnet.HostID]float64 {
	out := make(map[simnet.HostID]float64, len(d.FEs))
	for _, fe := range d.FEs {
		be := d.nearestBE(fe.Site().Point)
		out[fe.Host()] = geo.DistanceMiles(fe.Site().Point, be.Site().Point)
	}
	return out
}

// --- calibrated deployments ---

// googleFEMetros is the sparse dedicated fleet: a handful of major
// peering metros, calibrated to the paper's Figure-6 share of vantage
// nodes within 20 ms of their default FE (a root scorecard row) while the dense CDN fleet
// reaches nearly all of them.
var googleFEMetros = []string{
	"metro-newyork", "metro-chicago", "metro-atlanta",
	"metro-seattle", "metro-sanfrancisco",
}

func pickMetros(names []string) []geo.Site {
	byName := map[string]geo.Site{}
	for _, s := range geo.WorldMetros() {
		byName[s.Name] = s
	}
	out := make([]geo.Site, 0, len(names))
	for _, n := range names {
		if s, ok := byName[n]; ok {
			out = append(out, s)
		}
	}
	return out
}

// GoogleLike returns the calibrated Google-style deployment config:
// sparse dedicated FEs, fast stable BEs, clean FE↔BE paths.
func GoogleLike(seed int64) Config {
	return Config{
		Name:          "google-like",
		FESites:       pickMetros(googleFEMetros),
		BESites:       geo.GoogleBEs(),
		Spec:          workload.DefaultContentSpec("google-like"),
		Cost:          backend.GoogleCostModel(),
		FELoad:        frontend.DedicatedLoadModel(),
		ClientDelay:   geo.DefaultDelayModel(),
		BackboneDelay: geo.WideAreaFEBEDelayModel(),
		FEBEJitter:    500 * time.Microsecond,
		PrewarmConns:  2,
		Seed:          seed,
	}
}

// BingLike returns the calibrated Bing-style deployment config: dense
// shared CDN FEs (one in every metro — Akamai reaches into academic
// networks), slower and more variable BEs, noisier FE↔BE paths.
func BingLike(seed int64) Config {
	return Config{
		Name:          "bing-like",
		FESites:       geo.WorldMetros(), // dense: every metro
		BESites:       geo.BingBEs(),
		Spec:          workload.DefaultContentSpec("bing-like"),
		Cost:          backend.BingCostModel(),
		FELoad:        frontend.SharedCDNLoadModel(),
		ClientDelay:   geo.DefaultDelayModel(),
		BackboneDelay: geo.WideAreaFEBEDelayModel(),
		FEBEJitter:    3 * time.Millisecond,
		FEBELoss:      0.001,
		PrewarmConns:  2,
		Seed:          seed,
	}
}
