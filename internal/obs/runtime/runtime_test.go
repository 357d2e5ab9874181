package runtime

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEngineNilReceiversAreNoOps(t *testing.T) {
	var e *Engine
	e.AddEvents(5)
	e.AddSimTime(7)
	e.NoteHeapDepth(9)
	e.AddFastpath(1, 2, 3, [NumReasons]uint64{1})
	e.NoteRecord()
	e.AddTasks(4)
	e.TaskStarted("x")
	e.TaskDone("x")
	if e.SampleMem() != 0 || e.HeapWatermark() != 0 || e.Records() != 0 {
		t.Fatal("nil engine reported non-zero telemetry")
	}
	snap := e.Snapshot()
	if snap.Events != 0 || snap.Tasks.Total != 0 {
		t.Fatalf("nil engine snapshot not zero: %+v", snap)
	}
}

func TestEngineAccumulatesAndSnapshots(t *testing.T) {
	e := NewEngine()
	e.AddEvents(100)
	e.AddEvents(23)
	e.AddSimTime(int64(3 * time.Second))
	e.AddSimTime(-5) // negative deltas ignored
	e.NoteHeapDepth(40)
	e.NoteHeapDepth(12) // lower sample must not regress the watermark
	e.AddFastpath(2, 10, 4096, [NumReasons]uint64{ReasonDisabled: 1, ReasonTeardown: 2})
	e.AddTasks(3)
	e.TaskStarted("a")
	e.TaskStarted("b")
	e.TaskDone("a")

	snap := e.Snapshot()
	if snap.Events != 123 {
		t.Errorf("events = %d, want 123", snap.Events)
	}
	if snap.SimSeconds != 3 {
		t.Errorf("sim seconds = %g, want 3", snap.SimSeconds)
	}
	if snap.HeapDepthMax != 40 {
		t.Errorf("heap depth max = %d, want 40", snap.HeapDepthMax)
	}
	fp := snap.Fastpath
	if fp.Epochs != 2 || fp.Segments != 10 || fp.Bytes != 4096 || fp.Fallbacks != 3 {
		t.Errorf("fastpath snap = %+v", fp)
	}
	if fp.ByReason["disabled"] != 1 || fp.ByReason["teardown"] != 2 || fp.ByReason["topology"] != 0 {
		t.Errorf("fallbacks by reason = %v", fp.ByReason)
	}
	if snap.Tasks.Done != 1 || snap.Tasks.Total != 3 {
		t.Errorf("tasks = %+v, want 1/3", snap.Tasks)
	}
	if len(snap.Tasks.Running) != 1 || snap.Tasks.Running[0] != "b" {
		t.Errorf("running = %v, want [b]", snap.Tasks.Running)
	}
	if snap.HeapAllocBytes == 0 || snap.HeapWatermarkBytes < snap.HeapAllocBytes {
		t.Errorf("heap: alloc %d watermark %d — snapshot must raise the watermark",
			snap.HeapAllocBytes, snap.HeapWatermarkBytes)
	}
	if snap.Goroutines <= 0 {
		t.Errorf("goroutines = %d", snap.Goroutines)
	}
}

func TestEngineSampleMemRaisesWatermark(t *testing.T) {
	e := NewEngine()
	if got := e.SampleMem(); got == 0 {
		t.Fatal("SampleMem returned 0 HeapAlloc")
	}
	if e.HeapWatermark() == 0 {
		t.Fatal("watermark not raised by SampleMem")
	}
}

func TestEngineNoteRecordDecimatedSampling(t *testing.T) {
	e := NewEngine()
	for i := 0; i < memSampleEvery; i++ {
		e.NoteRecord()
	}
	if e.Records() != memSampleEvery {
		t.Fatalf("records = %d, want %d", e.Records(), memSampleEvery)
	}
	if e.HeapWatermark() == 0 {
		t.Fatal("the memSampleEvery-th record must refresh the heap watermark")
	}
}

func TestEngineConcurrentPublishers(t *testing.T) {
	e := NewEngine()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.AddEvents(1)
				e.NoteHeapDepth(int64(i))
				e.AddFastpath(1, 1, 1, [NumReasons]uint64{ReasonTopology: 1})
			}
		}()
	}
	wg.Wait()
	snap := e.Snapshot()
	if snap.Events != workers*per {
		t.Errorf("events = %d, want %d", snap.Events, workers*per)
	}
	if snap.Fastpath.Fallbacks != workers*per || snap.Fastpath.ByReason["topology"] != workers*per {
		t.Errorf("fallbacks = %d by-reason %v", snap.Fastpath.Fallbacks, snap.Fastpath.ByReason)
	}
	if snap.HeapDepthMax != per-1 {
		t.Errorf("heap depth max = %d, want %d", snap.HeapDepthMax, per-1)
	}
}

func TestSamplerRatesAndStopFlush(t *testing.T) {
	e := NewEngine()
	var mu sync.Mutex
	var got []Snapshot
	s := NewSampler(e, time.Hour, func(snap Snapshot) { // ticker never fires; SampleNow drives
		mu.Lock()
		got = append(got, snap)
		mu.Unlock()
	})
	s.Start()
	e.AddEvents(5000)
	e.AddSimTime(int64(2 * time.Second))
	time.Sleep(10 * time.Millisecond) // give WallMS a nonzero delta for the rate division
	s.Stop()                          // must flush one final snapshot
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("Stop did not flush a final snapshot")
	}
	last := got[len(got)-1]
	if last.Events != 5000 {
		t.Errorf("final snapshot events = %d, want 5000", last.Events)
	}
	if last.EventsPerSec <= 0 {
		t.Errorf("events/sec = %g, want > 0", last.EventsPerSec)
	}
	if last.SimPerWall <= 0 {
		t.Errorf("sim/wall = %g, want > 0", last.SimPerWall)
	}
}

func TestHeartbeatFormat(t *testing.T) {
	var buf bytes.Buffer
	hb := Heartbeat(&buf)
	hb(Snapshot{
		WallMS: 12400, Tasks: TaskSnap{Done: 8, Total: 23, Running: []string{"figA/bing-like", "fig4", "fig3"}},
		EventsPerSec: 1.2e6, SimPerWall: 830,
		HeapAllocBytes: 512 << 20, HeapWatermarkBytes: 1 << 30,
		Fastpath: FastpathSnap{Bytes: 34 << 20},
		Records:  4096,
	})
	line := buf.String()
	for _, want := range []string{
		"fesplit: 12.4s", "tasks 8/23", "[figA/bing-like fig4 +1]", "1.2M ev/s",
		"sim ×830", "heap 512.0 MiB", "peak 1.0 GiB", "fastpath 34.0 MiB", "records 4096",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("heartbeat %q missing %q", line, want)
		}
	}
	if strings.Count(line, "\n") != 1 {
		t.Errorf("heartbeat must be exactly one line, got %q", line)
	}
}

func TestJSONLRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	c := JSONL(&buf)
	c(Snapshot{Events: 7, Records: 3, Tasks: TaskSnap{Done: 1, Total: 2}})
	c(Snapshot{Events: 9})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d", len(lines))
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(lines[0]), &snap); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if snap.Events != 7 || snap.Records != 3 || snap.Tasks.Total != 2 {
		t.Errorf("round-trip lost fields: %+v", snap)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"wall_ms", "heap_alloc_bytes", "heap_watermark_bytes",
		"events", "events_per_sec", "sim_seconds", "sim_wall_ratio",
		"fastpath", "records_streamed", "tasks"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("runtime.jsonl schema missing key %q", key)
		}
	}
}

func TestHTTPMetricsAndProgress(t *testing.T) {
	e := NewEngine()
	e.AddEvents(42)
	e.AddSimTime(int64(time.Second))
	e.AddFastpath(1, 2, 300, [NumReasons]uint64{ReasonDisabled: 4})
	e.AddTasks(5)
	e.TaskStarted("cell")
	s := &Server{eng: e}
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"fesplit_runtime_events_total 42",
		"fesplit_runtime_sim_seconds_total 1",
		"fesplit_runtime_heap_alloc_bytes",
		"fesplit_runtime_heap_watermark_bytes",
		"fesplit_runtime_goroutines",
		"fesplit_runtime_tasks_total 5",
		"fesplit_runtime_fastpath_epochs_total 1",
		"fesplit_runtime_fastpath_bytes_total 300",
		`fesplit_runtime_fastpath_fallbacks_total{reason="disabled"} 4`,
		`fesplit_runtime_fastpath_fallbacks_total{reason="topology"} 0`,
		"fesplit_runtime_records_streamed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Without a sampler, /progress serves a fresh cumulative snapshot.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
	if rec.Code != 200 {
		t.Fatalf("/progress status %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if snap.Events != 42 || snap.Tasks.Total != 5 {
		t.Errorf("/progress snapshot %+v", snap)
	}

	// With a sampler feeding OnSample, /progress serves the retained
	// snapshot (which carries rate fields).
	s.OnSample(Snapshot{Events: 99, EventsPerSec: 1234})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Events != 99 || snap.EventsPerSec != 1234 {
		t.Errorf("/progress did not serve the sampled snapshot: %+v", snap)
	}

	// pprof is mounted on the private mux.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", rec.Code)
	}
}

func TestServerListensAndCloses(t *testing.T) {
	e := NewEngine()
	s, err := NewServer(e, "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback here: %v", err)
	}
	if s.Addr() == "" || !strings.Contains(s.Addr(), ":") {
		t.Errorf("Addr() = %q", s.Addr())
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
