package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"fesplit"
	"fesplit/internal/obs"
)

// cmdObs runs a small seeded Experiment A with the full observability
// layer enabled and exports every view of the run: a Chrome
// trace-event file (open in Perfetto / chrome://tracing), a Prometheus
// text exposition, a lossless JSONL metrics dump, a JSONL span dump,
// and a self-contained HTML report. Spans are TAIL-SAMPLED: only
// queries beyond -tail-pct of the Tdynamic distribution (at most
// -max-exemplars of them) and every inference-bound violation keep
// their span trees. Same seed → byte-identical files.
func cmdObs(args []string) error {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	service := fs.String("service", "google", "deployment flavor: google or bing")
	nodes := fs.Int("nodes", 12, "vantage nodes")
	queries := fs.Int("queries", 6, "queries per node")
	dir := fs.String("dir", "obs-out", "output directory for the exported files")
	tailPct := fs.Float64("tail-pct", 0.95, "retain span trees for queries beyond this Tdynamic percentile")
	maxExemplars := fs.Int("max-exemplars", 64, "cap on retained tail exemplars (bound violations always kept)")
	boundTol := fs.Duration("bound-tol", fesplit.DefaultBoundTolerance,
		"jitter slack before a fetch time outside Tdelta..Tdynamic counts as a bound violation")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg fesplit.DeploymentConfig
	switch *service {
	case "google":
		cfg = fesplit.GoogleLike(*seed)
	case "bing":
		cfg = fesplit.BingLike(*seed)
	default:
		return fmt.Errorf("unknown service %q", *service)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fesplit: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	o := fesplit.NewTailObserver(fesplit.TailConfig{
		Percentile:   *tailPct,
		MaxExemplars: *maxExemplars,
	})
	runner, err := fesplit.NewRunner(*seed, cfg, fesplit.RunnerOptions{
		Nodes:     *nodes,
		FleetSeed: *seed + 1,
		Obs:       o,
	})
	if err != nil {
		return err
	}
	ds := runner.RunExperimentA(fesplit.ExperimentAOptions{
		QueriesPerNode: *queries,
		Interval:       2 * time.Second,
		QuerySeed:      *seed + 2,
	})

	// Analysis-layer observability, one parse per record: phase
	// sketches, session parameters, critical-path attribution (which
	// annotates span trees with cp:* waterfalls) and the tail offer, in
	// the fold's fixed order.
	fold := fesplit.NewRecordFold(o.Reg, ds.Service, ds.Service, fesplit.BoundaryFromDataset(ds), o.Tail, *boundTol)
	var params []fesplit.Params
	for i := range ds.Records {
		if p, ok := fold.Consume(&ds.Records[i]); ok {
			params = append(params, p)
		}
	}
	fesplit.ObserveSessionParams(o.Reg, ds.Service, params)
	exemplars := o.Tail.Select()
	spans := o.Tail.Spans()
	fmt.Printf("tail sampling: %d offered, %d retained (%d bound violations), threshold p%g = %.1f ms\n",
		o.Tail.Offered(), len(exemplars), fold.Violations, 100*(*tailPct), 1000*o.Tail.Threshold())

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	rep := &fesplit.Report{Config: fesplit.StudyConfig{Seed: *seed, Nodes: *nodes}}
	files := []outFile{
		{"trace.json", func(f *os.File) error { return obs.WriteChromeTrace(f, spans) }},
		{"metrics.prom", func(f *os.File) error { return obs.WritePrometheus(f, o.Reg) }},
		{"metrics.jsonl", func(f *os.File) error { return obs.WriteMetricsJSONL(f, o.Reg) }},
		{"spans.jsonl", func(f *os.File) error { return obs.WriteSpansJSONL(f, spans) }},
		{"report.html", func(f *os.File) error { return rep.WriteHTML(f, o.Reg, exemplars) }},
	}
	if err := writeFiles(*dir, files); err != nil {
		return fmt.Errorf("obs: %w", err)
	}

	fmt.Printf("observed %s-like run: seed %d, %d nodes × %d queries\n",
		*service, *seed, *nodes, *queries)
	fmt.Printf("  records: %d (%d failed), spans: %d, metric families: %d\n",
		len(ds.Records), countFailed(ds), spans.Len(), len(o.Reg.Families()))
	fmt.Println(metricsSummary(o.Reg))
	fmt.Printf("  critical path: %d records attributed (run 'fesplit profile' for the blame table)\n",
		fold.Attributed)
	printFastPath(os.Stdout, "  ", o.Reg)
	for _, out := range files {
		fmt.Printf("  wrote %s\n", filepath.Join(*dir, out.name))
	}
	fmt.Println("open trace.json in https://ui.perfetto.dev or chrome://tracing")
	return nil
}

func countFailed(ds *fesplit.Dataset) int {
	n := 0
	for _, r := range ds.Records {
		if r.Failed {
			n++
		}
	}
	return n
}

// metricsSummary renders the one-line counters line shared by the obs,
// trace and decode commands.
func metricsSummary(reg *obs.Registry) string {
	v := func(name string) float64 {
		total := 0.0
		for _, f := range reg.Families() {
			if f.Name != name {
				continue
			}
			for _, s := range f.Series() {
				if s.Counter != nil {
					total += s.Counter.Value()
				}
			}
		}
		return total
	}
	return fmt.Sprintf("  events: %.0f, packets: %.0f (%.0f dropped), tcp segments: %.0f (%.0f retransmitted)",
		v("sim_events_executed_total"), v("net_packets_sent_total"), v("net_packets_dropped_total"),
		v("tcp_segments_sent_total"), v("tcp_retransmits_total"))
}
