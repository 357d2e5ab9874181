package runtime

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Server exposes a running study's engine telemetry over HTTP:
//
//	/metrics      Prometheus text exposition of the engine counters
//	/progress     the latest Snapshot as JSON
//	/debug/pprof  live profiling of the running process
//
// The handlers are mounted on a private mux — never on
// http.DefaultServeMux — so importing net/http/pprof side effects
// cannot leak endpoints into other servers, and vice versa. The server
// serves wall-clock telemetry only; it can never perturb the
// deterministic exports.
type Server struct {
	eng *Engine
	srv *http.Server
	ln  net.Listener

	mu   sync.Mutex
	last Snapshot
	have bool
}

// NewServer listens on addr (host:port, port 0 for ephemeral) and
// serves the telemetry endpoints in a background goroutine. Wire
// Server.OnSample into the Sampler so /progress carries rate fields;
// without a sampler, /progress falls back to a fresh cumulative
// snapshot.
func NewServer(eng *Engine, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("runtime: listen %s: %w", addr, err)
	}
	s := &Server{eng: eng}
	s.srv = &http.Server{Handler: s.Handler()}
	s.ln = ln
	go s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

// OnSample is a sampler Consumer: it retains the latest snapshot for
// /progress.
func (s *Server) OnSample(snap Snapshot) {
	s.mu.Lock()
	s.last, s.have = snap, true
	s.mu.Unlock()
}

// Handler returns the telemetry mux (exported for httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// snapshot returns the sampler's latest snapshot, or a fresh
// cumulative one when no sampler feeds the server.
func (s *Server) snapshot() Snapshot {
	s.mu.Lock()
	snap, have := s.last, s.have
	s.mu.Unlock()
	if !have {
		snap = s.eng.Snapshot()
	}
	return snap
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot()) //nolint:errcheck // client went away
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.eng.Snapshot() // always fresh: scrapers want live values
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	p("# HELP fesplit_runtime_events_total simulator events executed across all worlds\n")
	p("# TYPE fesplit_runtime_events_total counter\n")
	p("fesplit_runtime_events_total %d\n", snap.Events)
	p("# HELP fesplit_runtime_sim_seconds_total virtual time advanced, summed over worlds\n")
	p("# TYPE fesplit_runtime_sim_seconds_total counter\n")
	p("fesplit_runtime_sim_seconds_total %g\n", snap.SimSeconds)
	p("# HELP fesplit_runtime_heap_alloc_bytes live Go heap bytes\n")
	p("# TYPE fesplit_runtime_heap_alloc_bytes gauge\n")
	p("fesplit_runtime_heap_alloc_bytes %d\n", snap.HeapAllocBytes)
	p("# HELP fesplit_runtime_heap_inuse_bytes in-use Go heap spans\n")
	p("# TYPE fesplit_runtime_heap_inuse_bytes gauge\n")
	p("fesplit_runtime_heap_inuse_bytes %d\n", snap.HeapInuseBytes)
	p("# HELP fesplit_runtime_heap_watermark_bytes highest HeapAlloc observed this run\n")
	p("# TYPE fesplit_runtime_heap_watermark_bytes gauge\n")
	p("fesplit_runtime_heap_watermark_bytes %d\n", snap.HeapWatermarkBytes)
	p("# HELP fesplit_runtime_goroutines live goroutines\n")
	p("# TYPE fesplit_runtime_goroutines gauge\n")
	p("fesplit_runtime_goroutines %d\n", snap.Goroutines)
	p("# HELP fesplit_runtime_gc_pause_seconds_total cumulative GC stop-the-world pause\n")
	p("# TYPE fesplit_runtime_gc_pause_seconds_total counter\n")
	p("fesplit_runtime_gc_pause_seconds_total %g\n", snap.GCPauseMS/1e3)
	p("# HELP fesplit_runtime_heap_depth_max deepest scheduler event heap in any world\n")
	p("# TYPE fesplit_runtime_heap_depth_max gauge\n")
	p("fesplit_runtime_heap_depth_max %d\n", snap.HeapDepthMax)
	p("# HELP fesplit_runtime_tasks_total worker-pool tasks discovered\n")
	p("# TYPE fesplit_runtime_tasks_total gauge\n")
	p("fesplit_runtime_tasks_total %d\n", snap.Tasks.Total)
	p("# HELP fesplit_runtime_tasks_done worker-pool tasks completed\n")
	p("# TYPE fesplit_runtime_tasks_done gauge\n")
	p("fesplit_runtime_tasks_done %d\n", snap.Tasks.Done)
	p("# HELP fesplit_runtime_fastpath_epochs_total fast-forwarded epochs entered\n")
	p("# TYPE fesplit_runtime_fastpath_epochs_total counter\n")
	p("fesplit_runtime_fastpath_epochs_total %d\n", snap.Fastpath.Epochs)
	p("# HELP fesplit_runtime_fastpath_segments_total segments that bypassed the event heap\n")
	p("# TYPE fesplit_runtime_fastpath_segments_total counter\n")
	p("fesplit_runtime_fastpath_segments_total %d\n", snap.Fastpath.Segments)
	p("# HELP fesplit_runtime_fastpath_bytes_total wire bytes carried by heap-bypassing segments\n")
	p("# TYPE fesplit_runtime_fastpath_bytes_total counter\n")
	p("fesplit_runtime_fastpath_bytes_total %d\n", snap.Fastpath.Bytes)
	p("# HELP fesplit_runtime_records_streamed_total records folded through streaming sinks\n")
	p("# TYPE fesplit_runtime_records_streamed_total counter\n")
	p("fesplit_runtime_records_streamed_total %d\n", snap.Records)
	p("# HELP fesplit_runtime_fleet_arrivals_total ephemeral-client arrivals issued by fleet campaigns\n")
	p("# TYPE fesplit_runtime_fleet_arrivals_total counter\n")
	p("fesplit_runtime_fleet_arrivals_total %d\n", snap.Fleet.Arrivals)
	p("# HELP fesplit_runtime_fleet_live fleet-campaign arrivals currently in flight\n")
	p("# TYPE fesplit_runtime_fleet_live gauge\n")
	p("fesplit_runtime_fleet_live %d\n", snap.Fleet.Live)
	p("# HELP fesplit_runtime_fleet_slots pooled vantage slot objects created\n")
	p("# TYPE fesplit_runtime_fleet_slots gauge\n")
	p("fesplit_runtime_fleet_slots %d\n", snap.Fleet.Slots)
	p("# HELP fesplit_runtime_fleet_pooled vantage slots sitting in free pools\n")
	p("# TYPE fesplit_runtime_fleet_pooled gauge\n")
	p("fesplit_runtime_fleet_pooled %d\n", snap.Fleet.Pooled)
}
