package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	goruntime "runtime"
	"strings"
	"sync"
	"time"
)

// FastpathSnap is the fast-lane slice of a Snapshot.
type FastpathSnap struct {
	Epochs   uint64 `json:"epochs"`
	Segments uint64 `json:"segments"`
	Bytes    uint64 `json:"bytes"`
	// Fallbacks is always 0: every segment rides the fast lane, and
	// nothing leaves it mid-stream. The field stays because the
	// benchmark harness reads it.
	Fallbacks uint64 `json:"fallbacks"`
}

// FleetSnap is the fleet-campaign slice of a Snapshot: ephemeral-client
// arrivals issued, arrivals currently in flight, slot objects created,
// and slots sitting in the free pools. Live + pooled ≤ slots; the gap
// is slots momentarily between release and re-claim bookkeeping.
type FleetSnap struct {
	Arrivals uint64 `json:"arrivals"`
	Live     int64  `json:"live"`
	Slots    int64  `json:"slots"`
	Pooled   int64  `json:"pooled"`
}

// TaskSnap is the worker-pool slice of a Snapshot: how many pool tasks
// have finished out of those discovered so far, and which ones the
// workers are chewing on right now.
type TaskSnap struct {
	Done    int      `json:"done"`
	Total   int      `json:"total"`
	Running []string `json:"running"`
}

// Snapshot is one wall-clock observation of the engine: Go runtime
// statistics plus the Engine hub's gauges. Cumulative fields come from
// process start (or engine creation); the rate fields (EventsPerSec,
// SimPerWall) are computed by the Sampler between consecutive
// snapshots and are zero on a bare Engine.Snapshot call.
type Snapshot struct {
	WallMS     int64 `json:"wall_ms"`
	Goroutines int   `json:"goroutines"`

	HeapAllocBytes     uint64  `json:"heap_alloc_bytes"`
	HeapInuseBytes     uint64  `json:"heap_inuse_bytes"`
	SysBytes           uint64  `json:"sys_bytes"`
	HeapWatermarkBytes uint64  `json:"heap_watermark_bytes"`
	NumGC              uint32  `json:"num_gc"`
	GCPauseMS          float64 `json:"gc_pause_ms"`

	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimSeconds   float64 `json:"sim_seconds"`
	SimPerWall   float64 `json:"sim_wall_ratio"`
	HeapDepthMax int64   `json:"heap_depth_max"`

	Fastpath FastpathSnap `json:"fastpath"`
	Records  uint64       `json:"records_streamed"`
	Fleet    FleetSnap    `json:"fleet"`
	Tasks    TaskSnap     `json:"tasks"`
}

// Snapshot reads the hub and the Go runtime into one observation
// (rate fields zero — the Sampler fills those). Nil engines return a
// zero snapshot.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{}
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	e.raiseWatermark(ms.HeapAlloc) // a sample IS a watermark observation
	done, total, running := e.tasks()
	return Snapshot{
		WallMS:             time.Since(e.start).Milliseconds(),
		Goroutines:         goruntime.NumGoroutine(),
		HeapAllocBytes:     ms.HeapAlloc,
		HeapInuseBytes:     ms.HeapInuse,
		SysBytes:           ms.Sys,
		HeapWatermarkBytes: e.heapWatermark.Load(),
		NumGC:              ms.NumGC,
		GCPauseMS:          float64(ms.PauseTotalNs) / 1e6,
		Events:             e.events.Load(),
		SimSeconds:         float64(e.simNanos.Load()) / 1e9,
		HeapDepthMax:       e.heapDepthMax.Load(),
		Fastpath: FastpathSnap{
			Epochs:   e.fastEpochs.Load(),
			Segments: e.fastSegs.Load(),
			Bytes:    e.fastBytes.Load(),
		},
		Records: e.records.Load(),
		Fleet: FleetSnap{
			Arrivals: e.fleetArrivals.Load(),
			Live:     e.fleetLive.Load(),
			Slots:    e.fleetSlots.Load(),
			Pooled:   e.fleetPooled.Load(),
		},
		Tasks: TaskSnap{Done: done, Total: total, Running: running},
	}
}

// Consumer receives sampler snapshots (heartbeat, JSONL log, HTTP
// state). Consumers run on the sampler goroutine; keep them quick.
type Consumer func(Snapshot)

// Sampler drives wall-clock telemetry: every interval it takes an
// Engine snapshot, fills in the rate fields from the previous one, and
// fans it out to the consumers. Stop takes one final snapshot so short
// runs always emit at least one observation.
type Sampler struct {
	eng       *Engine
	interval  time.Duration
	consumers []Consumer

	mu   sync.Mutex
	prev Snapshot
	stop chan struct{}
	done chan struct{}
}

// DefaultInterval is the sampling cadence when the caller passes ≤ 0.
const DefaultInterval = time.Second

// NewSampler builds a sampler on the engine; call Start to begin
// sampling and Stop to flush the final snapshot.
func NewSampler(eng *Engine, interval time.Duration, consumers ...Consumer) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{
		eng:       eng,
		interval:  interval,
		consumers: consumers,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start launches the sampling goroutine.
func (s *Sampler) Start() {
	s.mu.Lock()
	s.prev = s.eng.Snapshot()
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SampleNow()
			case <-s.stop:
				return
			}
		}
	}()
}

// SampleNow takes one snapshot immediately, outside the ticker cadence
// (safe concurrently with the sampling goroutine).
func (s *Sampler) SampleNow() Snapshot {
	snap := s.eng.Snapshot()
	s.mu.Lock()
	prev := s.prev
	if dt := float64(snap.WallMS-prev.WallMS) / 1e3; dt > 0 {
		snap.EventsPerSec = float64(snap.Events-prev.Events) / dt
		snap.SimPerWall = (snap.SimSeconds - prev.SimSeconds) / dt
	}
	s.prev = snap
	consumers := s.consumers
	s.mu.Unlock()
	for _, c := range consumers {
		c(snap)
	}
	return snap
}

// Stop halts the ticker, emits one final snapshot, and waits for the
// goroutine to exit. Safe to call once after Start.
func (s *Sampler) Stop() {
	close(s.stop)
	<-s.done
	s.SampleNow()
}

// Heartbeat returns a consumer that writes one human progress line per
// snapshot, e.g.:
//
//	fesplit: 12.4s | tasks 8/23 [figA/bing-like +1] | 1.2M ev/s | sim ×8.3e4 | heap 512 MB (peak 1.4 GB) | fastpath 34 MB | records 4096
func Heartbeat(w io.Writer) Consumer {
	return func(s Snapshot) {
		var b strings.Builder
		fmt.Fprintf(&b, "fesplit: %.1fs | tasks %d/%d%s | %s ev/s | sim ×%s | heap %s (peak %s)",
			float64(s.WallMS)/1e3, s.Tasks.Done, s.Tasks.Total, runningSummary(s.Tasks.Running),
			siCount(s.EventsPerSec), siCount(s.SimPerWall),
			siBytes(s.HeapAllocBytes), siBytes(s.HeapWatermarkBytes))
		if s.Fastpath.Bytes > 0 {
			fmt.Fprintf(&b, " | fastpath %s", siBytes(s.Fastpath.Bytes))
		}
		if s.Records > 0 {
			fmt.Fprintf(&b, " | records %d", s.Records)
		}
		if s.Fleet.Arrivals > 0 {
			fmt.Fprintf(&b, " | fleet %s arrivals (live %d, %d/%d slots pooled)",
				siCount(float64(s.Fleet.Arrivals)), s.Fleet.Live, s.Fleet.Pooled, s.Fleet.Slots)
		}
		fmt.Fprintln(w, b.String())
	}
}

// JSONL returns a consumer that appends one JSON object per snapshot —
// the runtime.jsonl log written next to the study outputs.
func JSONL(w io.Writer) Consumer {
	enc := json.NewEncoder(w)
	return func(s Snapshot) {
		enc.Encode(s) //nolint:errcheck // telemetry log, never fails the run
	}
}

// runningSummary renders the in-flight task names, truncated so the
// heartbeat stays one line.
func runningSummary(running []string) string {
	if len(running) == 0 {
		return ""
	}
	const show = 2
	names := running
	if len(names) > show {
		return fmt.Sprintf(" [%s +%d]", strings.Join(names[:show], " "), len(names)-show)
	}
	return fmt.Sprintf(" [%s]", strings.Join(names, " "))
}

// siCount formats a rate with a metric prefix (1.2M, 840k, 12).
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// siBytes formats a byte count with binary prefixes.
func siBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%d B", v)
	}
}
