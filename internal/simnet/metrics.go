package simnet

import "fesplit/internal/obs"

// Metrics bundles the scheduler's and network's registry instruments.
// A nil *Metrics disables instrumentation: the hot paths pay a single
// pointer compare (the scheduler and packet-send benchmarks gate this).
type Metrics struct {
	// Scheduler.
	Scheduled *obs.Counter
	Executed  *obs.Counter
	HeapDepth *obs.Gauge

	// Network aggregates (per-path totals stay on the paths themselves;
	// Network.Stats reads them).
	PacketsSent    *obs.Counter
	PacketsDropped *obs.Counter
	BytesSent      *obs.Counter

	// sim, set by SetMetrics, lets Flush read the queue depth and its
	// exact maximum: the hot path tracks both as integers, so Flush is
	// where the gauge gets its values.
	sim *Sim
}

// NewMetrics registers the simnet metric families on reg and returns
// the bundle (nil registry → nil bundle, instrumentation disabled).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Scheduled:   reg.Counter("sim_events_scheduled_total", "events pushed onto the scheduler heap"),
		Executed:    reg.Counter("sim_events_executed_total", "events popped and run by the scheduler"),
		HeapDepth:   reg.Gauge("sim_heap_depth", "pending events on the scheduler heap"),
		PacketsSent: reg.Counter("net_packets_sent_total", "packets submitted to the network"),
		PacketsDropped: reg.Counter("net_packets_dropped_total",
			"packets dropped by loss processes before delivery"),
		BytesSent: reg.Counter("net_bytes_sent_total", "payload+header bytes submitted to the network"),
	}
}

// Flush copies the current queue depth and its exactly-tracked maximum
// into the sim_heap_depth gauge (value and high-water mark). Call once
// before exporting the registry; a bundle not wired to a Sim has
// nothing to flush.
func (m *Metrics) Flush() {
	if m == nil || m.sim == nil {
		return
	}
	m.HeapDepth.Set(float64(m.sim.events.len()))
	m.HeapDepth.RaiseMax(float64(m.sim.maxDepth))
}

// SetMetrics wires (or, with nil, unwires) scheduler and network
// instrumentation. The network shares the simulator's bundle.
func (s *Sim) SetMetrics(m *Metrics) {
	s.metrics = m
	if m != nil {
		m.sim = s
	}
}

// ExportMetrics snapshots the fast-forward engine's activity into the
// fastpath_* gauge families: how much traffic bypassed the event heap,
// and how often connections entered or abandoned epochs. Each export
// Sets cumulative totals, so re-exporting after more traffic simply
// overwrites; after a shard merge the series carry the busiest shard's
// snapshot — gauges merge by max, see obs.Registry.Merge.
func (n *Network) ExportMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.flushRuntime() // settle the telemetry hub alongside the export
	fs := n.FastPathStats()
	reg.Gauge("fastpath_epochs", "fast-forwarded epochs entered by connections (snapshot)").
		Set(float64(fs.Epochs))
	reg.Gauge("fastpath_bytes", "wire bytes carried by heap-bypassing segments (snapshot)").
		Set(float64(fs.Bytes))
	reg.Gauge("fastpath_fallbacks", "epochs abandoned back to the packet path (snapshot)").
		Set(float64(fs.Fallbacks))
	byReason := reg.GaugeVec("fastpath_fallbacks_by_reason",
		"epochs abandoned back to the packet path, by refusal reason (snapshot)", "reason")
	for i, v := range fs.FallbacksByReason {
		byReason.With(FallbackReason(i).String()).Set(float64(v))
	}
	reg.Gauge("fastpath_loss_drops",
		"lane segments consumed by loss processes at send time (snapshot)").
		Set(float64(fs.LossDrops))
	epochSegs := 0.0
	if fs.Epochs > 0 {
		epochSegs = float64(fs.Segments) / float64(fs.Epochs)
	}
	reg.Gauge("fastpath_epoch_segments",
		"mean heap-bypassing segments per epoch (snapshot)").
		Set(epochSegs)
}
