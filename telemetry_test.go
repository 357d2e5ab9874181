package fesplit

import (
	"bytes"
	goruntime "runtime"
	"testing"

	rt "fesplit/internal/obs/runtime"
)

// TestTelemetryDeterminismNeutral is the telemetry PR's headline
// property: attaching a runtime engine — heartbeats, heap sampling,
// task progress, fast-path publication — changes no exported byte, at
// any worker count. Telemetry observes the simulation; it never feeds
// back.
func TestTelemetryDeterminismNeutral(t *testing.T) {
	const seed = 3
	run := func(workers int, attach bool) (map[string][]byte, *rt.Engine) {
		cfg := LightStudyConfig(seed)
		cfg.Workers = workers
		s := NewStudy(cfg)
		var eng *rt.Engine
		if attach {
			eng = NewRuntimeEngine()
			s.SetRuntime(eng)
		}
		out, err := s.RunAllObserved()
		if err != nil {
			t.Fatalf("workers %d attach %v: %v", workers, attach, err)
		}
		return exportAll(t, out), eng
	}

	plain, _ := run(4, false)
	observed1, eng1 := run(1, true)
	observed4, eng4 := run(4, true)

	for name, want := range plain {
		for label, got := range map[string][]byte{
			"telemetry w1": observed1[name],
			"telemetry w4": observed4[name],
		} {
			if !bytes.Equal(want, got) {
				t.Errorf("%s differs from plain run under %s (%d vs %d bytes)",
					name, label, len(want), len(got))
			}
		}
	}
	if len(plain["metrics.jsonl"]) == 0 || len(plain["fig7.csv"]) == 0 {
		t.Fatal("equivalence vacuous — empty artifacts")
	}

	// The engines must actually have seen the run, or the comparison
	// above proves nothing about telemetry.
	for label, eng := range map[string]*rt.Engine{"w1": eng1, "w4": eng4} {
		snap := eng.Snapshot()
		if snap.Events == 0 {
			t.Errorf("%s: engine saw no simulator events", label)
		}
		if snap.Tasks.Total == 0 || snap.Tasks.Done != snap.Tasks.Total {
			t.Errorf("%s: task progress %d/%d, want all done and nonzero",
				label, snap.Tasks.Done, snap.Tasks.Total)
		}
		if snap.HeapWatermarkBytes == 0 {
			t.Errorf("%s: no heap watermark recorded", label)
		}
		if snap.SimSeconds <= 0 {
			t.Errorf("%s: no simulated time published", label)
		}
	}
}

// TestStreamingWorkerInvariant: with telemetry attached, every
// artifact of the observed study is byte-identical for workers 1 and
// 4, and the default-FE campaign's records really went through the
// per-batch sinks (the engine counted them).
func TestStreamingWorkerInvariant(t *testing.T) {
	const seed = 11
	run := func(workers int) (map[string][]byte, *rt.Engine) {
		cfg := LightStudyConfig(seed)
		cfg.Workers = workers
		s := NewStudy(cfg)
		eng := NewRuntimeEngine()
		s.SetRuntime(eng)
		out, err := s.RunAllObserved()
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return exportAll(t, out), eng
	}

	w1, _ := run(1)
	w4, eng4 := run(4)
	if len(w1) == 0 {
		t.Fatal("no artifacts compared — equivalence vacuous")
	}
	for name, want := range w1 {
		if !bytes.Equal(want, w4[name]) {
			t.Errorf("%s differs between workers=1 and workers=4", name)
		}
	}
	if eng4.Records() == 0 {
		t.Error("run reported zero records through the sinks")
	}
}

// TestStreamingHeapWatermarkBound pins the memory claim: at an elevated
// fleet scale (64 nodes × 40 queries in 16 batches, one worker) the
// default-FE campaign folds and drops each batch, so its heap watermark
// stays under an absolute bound a retained record history could not
// meet (retaining the datasets measured ~206 MiB when that path
// existed). The bound is ≈ 2× the ~40 MiB measured inside the full
// package run (~19 MiB alone). Watermarks are measured net of a GC'd
// pre-run baseline so earlier tests' residue cannot flatter the result.
func TestStreamingHeapWatermarkBound(t *testing.T) {
	if testing.Short() {
		t.Skip("elevated-scale campaign in -short mode")
	}
	cfg := LightStudyConfig(99)
	cfg.Nodes = 64
	cfg.QueriesPerNodeA = 40
	cfg.NodeBatches = 16
	cfg.Workers = 1
	s := NewStudy(cfg)
	eng := NewRuntimeEngine()
	s.SetRuntime(eng)
	goruntime.GC()
	goruntime.GC()
	base := eng.SampleMem()
	if _, err := s.experimentA(BingLike(cfg.Seed + 1)); err != nil {
		t.Fatal(err)
	}
	wm := eng.HeapWatermark()
	if wm <= base {
		t.Fatalf("watermark %d never rose above baseline %d", wm, base)
	}
	if eng.Records() == 0 {
		t.Fatal("no records went through the sinks")
	}
	const heapBound = 80 << 20
	net := wm - base
	t.Logf("net heap watermark %.1f MiB (bound %d MiB)", float64(net)/(1<<20), heapBound>>20)
	if net > heapBound {
		t.Errorf("net heap watermark %.1f MiB over the %d MiB bound",
			float64(net)/(1<<20), heapBound>>20)
	}
}

// TestTelemetryCoversExtensionCells: the extension cells build their
// worlds through the study's one constructor, so an attached engine
// sees their simulator events like every other cell's (they used to
// build worlds without the hub and ran invisibly to it).
func TestTelemetryCoversExtensionCells(t *testing.T) {
	s := NewStudy(LightStudyConfig(3))
	eng := NewRuntimeEngine()
	s.SetRuntime(eng)
	cells := []struct {
		name string
		run  func() error
	}{
		{"Interactive", func() error { _, err := s.Interactive("cloud"); return err }},
		{"ModelValidation", func() error { _, err := s.ModelValidation(); return err }},
		{"termEffectFor", func() error { _, err := s.termEffectFor(GoogleLike(3 + 2)); return err }},
	}
	// The first cell pays for the shared boundary probe, whose world was
	// always visible; run it up front so each delta is the cell's own.
	if _, err := s.boundaryFor(GoogleLike(3 + 2)); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		before := eng.Snapshot().Events
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if after := eng.Snapshot().Events; after <= before {
			t.Errorf("%s: engine events stayed at %d — the cell's world is invisible to telemetry", c.name, after)
		}
	}
}
