package simnet

import (
	"sort"

	"fesplit/internal/obs"
)

// Metrics bundles the scheduler's and network's registry instruments.
// A nil *Metrics disables instrumentation: the hot paths pay a single
// pointer compare (the scheduler and packet-send benchmarks gate this).
type Metrics struct {
	// Scheduler.
	Scheduled    *obs.Counter
	Executed     *obs.Counter
	HeapDepth    *obs.Gauge
	HeapDepthMax *obs.Gauge

	// Network aggregates (per-path counters live on the paths
	// themselves and are snapshotted by Network.ExportMetrics).
	PacketsSent    *obs.Counter
	PacketsDropped *obs.Counter
	BytesSent      *obs.Counter

	// sim, set by SetMetrics, lets Flush read the queue depth and its
	// exact maximum; the per-event gauge updates are sampled (see
	// Sim.enqueue), so Flush is where the final values land.
	sim *Sim
}

// NewMetrics registers the simnet metric families on reg and returns
// the bundle (nil registry → nil bundle, instrumentation disabled).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Scheduled:    reg.Counter("sim_events_scheduled_total", "events pushed onto the scheduler heap"),
		Executed:     reg.Counter("sim_events_executed_total", "events popped and run by the scheduler"),
		HeapDepth:    reg.Gauge("sim_heap_depth", "pending events on the scheduler heap"),
		HeapDepthMax: reg.Gauge("sim_heap_depth_max", "deepest scheduler heap observed"),
		PacketsSent:  reg.Counter("net_packets_sent_total", "packets submitted to the network"),
		PacketsDropped: reg.Counter("net_packets_dropped_total",
			"packets dropped by loss processes before delivery"),
		BytesSent: reg.Counter("net_bytes_sent_total", "payload+header bytes submitted to the network"),
	}
}

// Flush copies derived values (the current queue depth and its exact
// maximum) into their exported gauges. Call once before exporting the
// registry: the per-event HeapDepth updates are decimated samples, so
// only after Flush do the gauges carry authoritative values.
func (m *Metrics) Flush() {
	if m == nil {
		return
	}
	if s := m.sim; s != nil {
		m.HeapDepth.Set(float64(s.events.len()))
		// The decimated per-event samples may never have fired on a
		// short run (depthSampleInterval events is a lot of scenario),
		// leaving the gauge's historical max at zero — raise it to the
		// exactly-tracked watermark so every export reports the truth.
		m.HeapDepth.RaiseMax(float64(s.maxDepth))
		m.HeapDepthMax.Set(float64(s.maxDepth))
		return
	}
	m.HeapDepthMax.Set(m.HeapDepth.Max())
}

// SetMetrics wires (or, with nil, unwires) scheduler and network
// instrumentation. The network shares the simulator's bundle.
func (s *Sim) SetMetrics(m *Metrics) {
	s.metrics = m
	if m != nil {
		m.sim = s
	}
}

// ExportMetrics snapshots the per-path counters into labeled registry
// families (net_path_*{from,to}). Paths are walked in sorted key order
// so the exposition is deterministic. The per-packet hot path stays
// untouched: paths already count sends locally.
//
// The families are gauges: each export Sets the path's cumulative
// totals as a snapshot, so re-exporting after more traffic simply
// overwrites (the old counter-based export had to fake this with
// Add(v − Value()) deltas). After a shard merge the per-path series
// carry the busiest shard's snapshot — gauges merge by max; see
// obs.Registry.Merge.
func (n *Network) ExportMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}

	// Fast-forward engine activity: how much traffic bypassed the event
	// heap, and how often connections entered/abandoned analytic epochs.
	// Gauges (snapshots), same merge semantics as the per-path counters.
	n.flushRuntime() // settle the telemetry hub alongside the export
	fs := n.FastPathStats()
	reg.Gauge("fastpath_epochs", "fast-forwarded epochs entered by connections (snapshot)").
		Set(float64(fs.Epochs))
	reg.Gauge("fastpath_bytes", "wire bytes carried by heap-bypassing segments (snapshot)").
		Set(float64(fs.Bytes))
	reg.Gauge("fastpath_fallbacks", "epochs suspended or abandoned back to the packet path (snapshot)").
		Set(float64(fs.Fallbacks))
	byReason := reg.GaugeVec("fastpath_fallbacks_by_reason",
		"epochs abandoned back to the packet path, by refusal reason (snapshot)", "reason")
	for i, v := range fs.FallbacksByReason {
		byReason.With(FallbackReason(i).String()).Set(float64(v))
	}
	reg.Gauge("fastpath_reentries",
		"epochs re-entered after a loss-recovery suspension (snapshot)").
		Set(float64(fs.Reentries))
	reg.Gauge("fastpath_loss_drops",
		"lane segments consumed by loss processes at send time (snapshot)").
		Set(float64(fs.LossDrops))
	epochSegs := 0.0
	if fs.Epochs > 0 {
		epochSegs = float64(fs.Segments) / float64(fs.Epochs)
	}
	reg.Gauge("fastpath_epoch_segments",
		"mean heap-bypassing segments per analytic epoch (snapshot)").
		Set(epochSegs)

	sent := reg.GaugeVec("net_path_packets", "packets sent per directed path (snapshot)", "from", "to")
	dropped := reg.GaugeVec("net_path_dropped", "packets dropped per directed path (snapshot)", "from", "to")
	bytes := reg.GaugeVec("net_path_bytes", "bytes sent per directed path (snapshot)", "from", "to")

	keys := make([]pathKey, 0, len(n.paths))
	for k := range n.paths {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		p := n.paths[k]
		if p.sent == 0 && p.dropped == 0 {
			continue // unused default paths would bloat the exposition
		}
		from, to := string(k.from), string(k.to)
		sent.With(from, to).Set(float64(p.sent))
		dropped.With(from, to).Set(float64(p.dropped))
		bytes.With(from, to).Set(float64(p.bytes))
	}
}
