package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"fesplit"
)

// The self-tests run every workload through the harness's own code at
// tinyScale. study-observed's queue cells do not shrink with the node
// count, so its traced run alone takes most of the ~13 s.

func TestMain(m *testing.M) {
	probeBatch = time.Millisecond
	os.Exit(m.Run())
}

func tinyOpts(t *testing.T, workload, mode string) childOpts {
	t.Helper()
	return childOpts{
		Workload: workload, Seed: 3, Seconds: 0.01, Mode: mode, MinReps: 1,
		Scale: &tinyScale, Root: "..", OutDir: t.TempDir(),
	}
}

func TestWorkloadsMeasureAtTinyScale(t *testing.T) {
	t.Parallel() // overlaps the traced runs, which own the process-wide profilers
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runChild(tinyOpts(t, w.Name, modeMeasure))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) > 0 {
				t.Fatalf("output checks failed: %v", res.Failures)
			}
			if res.Reps < 1 || res.Attempted < 1 || res.Digest == "" {
				t.Fatalf("reps %d, attempted %d, digest %q", res.Reps, res.Attempted, res.Digest)
			}
			if res.Sim["sim.queries_per_rep"] < 1 || res.Sim["sim.overall_p50_ms"] <= 0 {
				t.Fatalf("no simulated result: %v", res.Sim)
			}
			// Everything but setup_s, which the parent adds from outside.
			for _, d := range endToEnd {
				if d.Name == "setup_s" {
					continue
				}
				if s, ok := res.EndToEnd[d.Name]; !ok || s.Value <= 0 || s.Unit != d.Unit {
					t.Errorf("%s: reported %+v", d.Name, s)
				}
			}
		})
	}
}

func TestWorkloadsTraceAtTinyScale(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			opts := tinyOpts(t, w.Name, modeTrace)
			res, err := runChild(opts)
			if err != nil {
				t.Fatal(err)
			}
			// A metric-drift failure here means catalog.go and the harness
			// disagree on what is printed or on where it is observable.
			if len(res.Failures) > 0 {
				t.Fatalf("output checks failed: %v", res.Failures)
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Fatalf("%d per-layer metrics reported, %d declared", len(res.PerLayer), len(perLayer))
			}
			// The allocation profile, not the CPU profile: a tiny repetition
			// can end between two 10 ms CPU samples.
			if res.PerLayer["simnet.events_per_query"] <= 0 || res.PerLayer["tcpsim.alloc_bytes_per_query"] <= 0 {
				t.Errorf("count or profile source silent: events/query %v, tcpsim bytes/query %v",
					res.PerLayer["simnet.events_per_query"], res.PerLayer["tcpsim.alloc_bytes_per_query"])
			}
			if slots := res.PerLayer["emulator.fleet_slots"]; (slots > 0) != (w.Name == wFleet) {
				t.Errorf("emulator.fleet_slots = %v", slots)
			}
			if series := res.PerLayer["obs.series"]; (series > 0) != (w.Name == wObserved) {
				t.Errorf("obs.series = %v", series)
			}
			b, err := os.ReadFile(filepath.Join(opts.OutDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(b, []byte(`"traceEvents"`)) || !bytes.Contains(b, []byte(`"name":"rep"`)) {
				t.Errorf("span file is not a Chrome trace with rep spans: %.80s", b)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	digest := func(seed int64) string {
		o := tinyOpts(t, wLossy, modeSetup)
		o.Seed = seed
		res, err := runChild(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	if a, b := digest(3), digest(3); a != b {
		t.Errorf("same seed, different outputs: %s vs %s", a, b)
	}
	if a, b := digest(3), digest(4); a == b {
		t.Errorf("seeds 3 and 4 produce the same outputs")
	}
}

func TestQueryCountCheckFails(t *testing.T) {
	sc := tinyScale
	sc.Queries = map[string]int{wLossy: 1}
	o := tinyOpts(t, wLossy, modeSetup)
	o.Scale = &sc
	res, err := runChild(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || !strings.HasPrefix(res.Failures[0], "query-count:") {
		t.Fatalf("want one query-count failure, got %v", res.Failures)
	}
}

func TestGoldenCheck(t *testing.T) {
	golden := filepath.Join("..", "testdata", "golden")
	if err := checkGolden(golden, golden); err != nil {
		t.Fatalf("golden against itself: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fig3.csv"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(dir, golden); err == nil {
		t.Fatal("a lone wrong CSV passed the golden check")
	}
}

// --- catalog and BENCHMARK.json ---

func TestManifestMatchesCatalog(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the catalog: regenerate it with `bash benchmark/run.sh manifest > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
}

// Limits of the BENCHMARK.json contract.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogWithinContract(t *testing.T) {
	if n := len(workloadDefs); n < 2 || n > maxWorkloads {
		t.Errorf("%d workloads, contract allows 2..%d", n, maxWorkloads)
	}
	if n := len(endToEnd); n < 1 || n > maxEndToEnd {
		t.Errorf("%d end-to-end metrics, contract allows 1..%d", n, maxEndToEnd)
	}
	if n := len(perLayer); n < 1 || n > maxPerLayer {
		t.Errorf("%d per-layer metrics, contract allows 1..%d", n, maxPerLayer)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("%s is declared but not runnable", w.Name)
		}
	}
	if len(workloads) != len(workloadDefs) {
		t.Errorf("%d runnable workloads, %d declared", len(workloads), len(workloadDefs))
	}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		for _, w := range d.On {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s: observable on unknown workload %q", d.Name, w)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, cell := range studyCells {
		if _, ok := metricByName("study.cell." + cell + "_s"); !ok {
			t.Errorf("cell %s has no metric", cell)
		}
	}
	for _, l := range cpuLayers {
		if _, ok := metricByName(l + ".cpu_share"); !ok {
			t.Errorf("layer %s has no cpu_share metric", l)
		}
	}
	for _, l := range allocLayers {
		if _, ok := metricByName(l + ".alloc_bytes_per_query"); !ok {
			t.Errorf("layer %s has no alloc_bytes_per_query metric", l)
		}
	}
}

func TestCheckDeclared(t *testing.T) {
	defs := []metricDef{{Name: "a"}, {Name: "b", On: []string{wFleet}}}
	ok := map[string]float64{"a": 1, "b": 0}
	if err := checkDeclared(wLossy, defs, ok, map[string]bool{"b": true}); err != nil {
		t.Errorf("clean set rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		got map[string]float64
		na  map[string]bool
	}{
		"missing":            {map[string]float64{"a": 1}, nil},
		"undeclared":         {map[string]float64{"a": 1, "b": 0, "c": 2}, map[string]bool{"b": true}},
		"observable but n/a": {ok, map[string]bool{"a": true, "b": true}},
		"n/a but valued":     {ok, nil},
	} {
		if err := checkDeclared(wLossy, defs, tc.got, tc.na); err == nil {
			t.Errorf("%s: drift not detected", name)
		}
	}
}

// --- profile attribution ---

func TestInnermostFrameAttribution(t *testing.T) {
	p := &profile{
		SampleTypes: []string{"samples", "cpu"},
		Samples: []profSample{
			// malloc under tcpsim under emulator under the study: tcpsim pays.
			{Stack: []string{"runtime.mallocgc", "runtime.growslice", "fesplit/internal/tcpsim.(*Conn).Send",
				"fesplit/internal/emulator.(*Runner).RunExperimentA", "fesplit.(*Study).Fig5", "main.runPaperCore", "main.main"}, Values: []int64{4, 40}},
			// obs sub-packages fold into obs.
			{Stack: []string{"fesplit/internal/obs/critpath.Attribute", "fesplit/internal/analysis.AttributeRecord", "main.main"}, Values: []int64{1, 10}},
			// the root package is the study layer.
			{Stack: []string{"sort.Slice", "fesplit.(*Report).WriteText", "main.runObserved"}, Values: []int64{2, 20}},
			// harness only.
			{Stack: []string{"encoding/json.Marshal", "main.hashJSON"}, Values: []int64{1, 10}},
			// background GC has no program frame at all.
			{Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, Values: []int64{2, 20}},
		},
	}
	ci, err := p.valueIndex("cpu")
	if err != nil {
		t.Fatal(err)
	}
	by, total := attribute(p, ci)
	want := map[string]float64{"tcpsim": 40, "obs": 10, layerStudy: 20, layerBench: 10, layerRuntime: 20}
	if total != 100 {
		t.Errorf("total %v, want 100", total)
	}
	for l, v := range want {
		if by[l] != v {
			t.Errorf("layer %s: %v, want %v (all: %v)", l, by[l], v, by)
		}
	}
	if len(by) != len(want) {
		t.Errorf("unexpected layers: %v", by)
	}
	if got := inclusive(p, ci, "fesplit/internal/emulator."); got != 40 {
		t.Errorf("inclusive emulator %v, want 40", got)
	}
	if got := inclusive(p, ci, "runtime.gcBgMarkWorker"); got != 20 {
		t.Errorf("inclusive gc %v, want 20", got)
	}
	if _, err := p.valueIndex("alloc_space"); err == nil {
		t.Error("missing sample type not reported")
	}
}

func TestSubtractProfiles(t *testing.T) {
	before := &profile{SampleTypes: []string{"alloc_space"}, Samples: []profSample{
		{Stack: []string{"a", "b"}, Values: []int64{100}},
	}}
	after := &profile{SampleTypes: []string{"alloc_space"}, Samples: []profSample{
		{Stack: []string{"a", "b"}, Values: []int64{150}},
		{Stack: []string{"c"}, Values: []int64{7}},
	}}
	d := subtract(after, before)
	if len(d.Samples) != 2 || d.Samples[0].Values[0] != 50 || d.Samples[1].Values[0] != 7 {
		t.Fatalf("delta %+v", d.Samples)
	}
}

// pb is a tiny protobuf writer for building a profile by hand.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}
func (b *pb) num(tag int, v uint64) { b.varint(uint64(tag)<<3 | 0); b.varint(v) }
func (b *pb) raw(tag int, p []byte) {
	b.varint(uint64(tag)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}
func (b *pb) msg(tag int, f func(*pb)) { var m pb; f(&m); b.raw(tag, m.Bytes()) }

func TestParseProfileInlinedFramesLeafFirst(t *testing.T) {
	strs := []string{"", "samples", "count", "leaf", "inlinedCaller", "root"}
	var p pb
	p.msg(1, func(m *pb) { m.num(1, 1); m.num(2, 2) })
	p.msg(2, func(m *pb) { // sample: locations 1 then 2, packed values
		m.num(1, 1)
		m.num(1, 2)
		var vals pb
		vals.varint(9)
		m.raw(2, vals.Bytes())
	})
	// location 1 holds leaf inlined into inlinedCaller; location 2 is root.
	p.msg(4, func(m *pb) {
		m.num(1, 1)
		m.msg(4, func(l *pb) { l.num(1, 10) })
		m.msg(4, func(l *pb) { l.num(1, 11) })
	})
	p.msg(4, func(m *pb) { m.num(1, 2); m.msg(4, func(l *pb) { l.num(1, 12) }) })
	for i, id := range []uint64{10, 11, 12} {
		i, id := i, id
		p.msg(5, func(m *pb) { m.num(1, id); m.num(2, uint64(3+i)) })
	}
	for _, s := range strs {
		p.raw(6, []byte(s))
	}
	prof, err := parseProfile(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.SampleTypes) != 1 || prof.SampleTypes[0] != "samples" {
		t.Errorf("sample types %v", prof.SampleTypes)
	}
	if len(prof.Samples) != 1 || prof.Samples[0].Values[0] != 9 ||
		strings.Join(prof.Samples[0].Stack, ">") != "leaf>inlinedCaller>root" {
		t.Errorf("samples %+v", prof.Samples)
	}
	if _, err := parseProfile(p.Bytes()[:p.Len()-3]); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.valueIndex("alloc_space"); err != nil {
		t.Error(err)
	}
}

// --- statistics, spans, compare ---

func TestQuantilesAndTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if m := median(xs); m != 3 {
		t.Errorf("median %v", m)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q1 %v", q)
	}
	if s := summarize(xs, "s"); s.spread() != (4.0-2.0)/3.0 || s.N != 5 {
		t.Errorf("summary %+v spread %v", s, s.spread())
	}
	// 200 samples support p95 (ten beyond it), 20000 support p99.
	if p := tailPctFor(200); p != 95 {
		t.Errorf("tail percentile of 200 samples: %v", p)
	}
	if p := tailPctFor(20000); p != 99 {
		t.Errorf("tail percentile of 20000 samples: %v", p)
	}
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i)
	}
	if pct, v := tailOf(vals); pct != 95 || v < 188 || v > 190 {
		t.Errorf("tailOf: p%v = %v", pct, v)
	}
}

func TestSpansSelfTimeAndNilRecorder(t *testing.T) {
	var none *spanRec
	none.begin("x")() // must not panic
	if none.durations("x") != nil {
		t.Error("nil recorder returned durations")
	}
	r := newSpanRec("run-1")
	endOuter := r.begin("outer")
	endInner := r.begin("inner")
	time.Sleep(2 * time.Millisecond)
	endInner()
	endOuter()
	if r.spans[1].Parent != 0 || r.spans[0].Parent != -1 {
		t.Fatalf("parents: %+v", r.spans)
	}
	outer, inner := r.durations("outer")[0], r.durations("inner")[0]
	if self := r.selfSeconds(0); self < 0 || self > outer-inner+1e-9 {
		t.Errorf("self %v with outer %v inner %v", self, outer, inner)
	}
	var buf bytes.Buffer
	if err := r.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"run":"run-1"`) || !strings.Contains(buf.String(), `"parent":0`) {
		t.Errorf("chrome trace lacks run id or parent: %s", buf.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(qps, alloc, events float64, digest string) *resultFile {
		return &resultFile{Seed: 42, Workloads: map[string]*runResult{wLossy: {
			Workload: wLossy, Digest: digest,
			EndToEnd: map[string]summary{
				"queries_per_s":         {Value: qps, Q1: qps * 0.99, Q3: qps * 1.01, N: 8},
				"alloc_bytes_per_query": {Value: alloc, Q1: alloc, Q3: alloc, N: 8},
				"heap_p99_mb":           {Value: 100, Q1: 70, Q3: 130, N: 8},
			},
			PerLayer: map[string]float64{"simnet.events_per_query": events, "tcpsim.cpu_share": 0.2},
		}}}
	}
	a := mk(1000, 500, 110, "d1")
	verdict := func(rows []compareRow, metric string) string {
		for _, r := range rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		return "absent"
	}
	rows := compareResults(a, mk(700, 480, 110, "d1"))
	for metric, want := range map[string]string{
		"queries_per_s":           vWorse,      // 30 % slower, bound 25 %
		"alloc_bytes_per_query":   vBetter,     // 4 % fewer bytes, bound 2 %
		"heap_p99_mb":             vUnresolved, // spread wider than its bound
		"simnet.events_per_query": vEqual,
		"output-digest":           vEqual,
		"tcpsim.cpu_share":        vInfo,
		"obs.export_s":            "absent", // not observable on lossy-access
	} {
		if got := verdict(rows, metric); got != want {
			t.Errorf("%s: %s, want %s", metric, got, want)
		}
	}
	rows = compareResults(a, mk(1010, 500, 111, "d2"))
	for metric, want := range map[string]string{
		"queries_per_s": vWithin, "simnet.events_per_query": vChanged, "output-digest": vChanged,
	} {
		if got := verdict(rows, metric); got != want {
			t.Errorf("%s: %s, want %s", metric, got, want)
		}
	}
	other := mk(1000, 500, 999, "dx")
	other.Seed = 7
	if got := verdict(compareResults(a, other), "simnet.events_per_query"); got != vSkipped {
		t.Errorf("different seeds: exact metric %s, want %s", got, vSkipped)
	}
	var buf bytes.Buffer
	if worse, changed, _ := writeCompare(&buf, compareResults(a, mk(700, 500, 111, "d1"))); worse != 1 || changed != 1 {
		t.Errorf("worse %d changed %d\n%s", worse, changed, buf.String())
	}
}

func TestDigestIgnoresTiedNodeOrder(t *testing.T) {
	a := fesplit.NodeSummary{Node: "node-001", RTT: 5, N: 2}
	b := fesplit.NodeSummary{Node: "node-002", RTT: 5, N: 3}
	digest := func(nodes ...fesplit.NodeSummary) string {
		d, err := hashJSON([]interface{}{
			canonFig5([]*fesplit.Fig5Data{{Service: "s", Nodes: nodes}}),
			canonFig7([]*fesplit.Fig7Data{{Service: "s", Nodes: nodes}}),
			canonFig8([]*fesplit.Fig8Data{{Service: "s", Nodes: []string{string(nodes[0].Node), string(nodes[1].Node)},
				Boxes: []fesplit.BoxPlot{{Median: float64(nodes[0].N)}, {Median: float64(nodes[1].N)}}}}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if digest(a, b) != digest(b, a) {
		t.Error("digest depends on the order of nodes with equal RTT")
	}
	b2 := b
	b2.N = 4
	if digest(a, b) == digest(a, b2) {
		t.Error("digest ignores a changed value")
	}

	write := func(csv string) string {
		dir := t.TempDir()
		for name, body := range map[string]string{"fig5.csv": csv, "report.html": csv} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := hashDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if write("h\nrow1\nrow2\n") != write("h\nrow2\nrow1\n") {
		t.Error("file digest depends on row order")
	}
	if write("h\nrow1\nrow2\n") == write("h\nrow1\nrow3\n") {
		t.Error("file digest ignores a changed row")
	}
}
