package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fesplit"
	rt "fesplit/internal/obs/runtime"
)

// studyFlags registers the flags report and study share —
// -seed and -scale, plus -workers and -node-batches on the commands that
// expose the worker pool (elsewhere cells run on every CPU) — and
// returns the function that parses args and validates them into the
// run's StudyConfig.
func studyFlags(fs *flag.FlagSet, pool bool) func(args []string) (fesplit.StudyConfig, error) {
	seed := fs.Int64("seed", 42, "experiment seed")
	scale := fs.String("scale", "light", "study scale: light or full")
	var workers, batches int
	if pool {
		fs.IntVar(&workers, "workers", runtime.NumCPU(),
			"worker goroutines for study cells and node batches (must be ≥ 1; capped at the cell count)")
		fs.IntVar(&batches, "node-batches", 0,
			"node batches for the default-FE campaign (0 → default; changes results, unlike -workers)")
	}
	return func(args []string) (cfg fesplit.StudyConfig, err error) {
		if err = fs.Parse(args); err != nil {
			return cfg, err
		}
		switch *scale {
		case "light":
			cfg = fesplit.LightStudyConfig(*seed)
		case "full":
			cfg = fesplit.DefaultStudyConfig(*seed)
		default:
			return cfg, fmt.Errorf("%s: unknown -scale %q", fs.Name(), *scale)
		}
		if pool && workers < 1 {
			return cfg, fmt.Errorf("%s: -workers must be ≥ 1, got %d", fs.Name(), workers)
		}
		cfg.Workers, cfg.NodeBatches = workers, batches
		return cfg, nil
	}
}

// telemetry is a running wall-clock telemetry session of `fesplit
// study`; server is nil without -listen.
type telemetry struct {
	sampler *rt.Sampler
	jsonl   *os.File
	server  *rt.Server
}

// startTelemetry attaches a fresh engine to the study and samples it
// every interval into dir/runtime.jsonl, onto stderr as a heartbeat
// when progress is set, and into an HTTP endpoint when listen names an
// address (the caller closes the endpoint).
func startTelemetry(stderr io.Writer, study *fesplit.Study, dir string, progress bool, interval time.Duration, listen string) (*telemetry, error) {
	eng := rt.NewEngine()
	study.SetRuntime(eng)
	var consumers []rt.Consumer
	if progress {
		consumers = append(consumers, rt.Heartbeat(stderr))
	}
	rj, err := os.Create(filepath.Join(dir, "runtime.jsonl"))
	if err != nil {
		return nil, err
	}
	t := &telemetry{jsonl: rj}
	consumers = append(consumers, rt.JSONL(rj))
	if listen != "" {
		t.server, err = rt.NewServer(eng, listen)
		if err != nil {
			rj.Close()
			return nil, fmt.Errorf("study: -listen %s: %w", listen, err)
		}
		fmt.Fprintf(stderr, "study: telemetry listening on http://%s\n", t.server.Addr())
		consumers = append(consumers, t.server.OnSample)
	}
	t.sampler = rt.NewSampler(eng, interval, consumers...)
	t.sampler.Start()
	return t, nil
}

// stop ends sampling with one final snapshot before the run's closing
// summary is printed. A nil session is a no-op.
func (t *telemetry) stop() {
	if t != nil {
		t.sampler.Stop()
		t.jsonl.Close()
	}
}

// blameTop is how many phases per service the stderr blame table of
// `fesplit study` prints; profile.csv carries them all.
const blameTop = 5

// cmdStudy runs the full observed study on a worker pool and exports
// every view of it into one directory: the text report, figure CSVs,
// lossless JSONL + Prometheus metrics, tail-sampled JSONL spans, the
// self-contained HTML report, the critical-path blame table
// (profile.csv, and its top phases per service on stderr) and the
// paper-claim scorecard (scorecard.csv). The headline
// property: for a fixed seed, every exported byte is identical whatever
// -workers is — the worker count buys wall-clock time, never different
// results.
func cmdStudy(args []string, _, stderr io.Writer) error {
	fs := newFlagSet("study", stderr)
	parse := studyFlags(fs, true)
	dir := fs.String("dir", "study-out", "output directory for the exported files")
	progress := fs.Bool("progress", false,
		"print a live heartbeat line to stderr every -progress-interval while the study runs")
	progressInterval := fs.Duration("progress-interval", time.Second,
		"wall-clock sampling cadence for -progress, runtime.jsonl and -listen snapshots")
	listen := fs.String("listen", "",
		"serve live telemetry over HTTP on this address (/metrics, /progress, /debug/pprof); empty disables")
	linger := fs.Duration("linger", 0,
		"keep the -listen endpoint up this long after the study finishes (for scraping a completed run)")
	diurnal := fs.Bool("diurnal", false,
		"run the ephemeral-client fleet campaign (requires -clients) instead of the figure study; writes fleet.csv")
	clients := fs.Int("clients", 0,
		"fleet campaign arrival count for -diurnal (clients exist only for their one query; memory tracks peak concurrency)")
	horizon := fs.Duration("horizon", 10*time.Minute,
		"virtual-time span of the -diurnal rate curve (the compressed day)")
	fleetBatches := fs.Int("fleet-batches", 0,
		"strided arrival batches for -diurnal (0 → default; changes results, unlike -workers)")
	beSlowdown := fs.Float64("be-slowdown", 0,
		"scale both services' BE processing cost by this factor (0 → off; a controlled regression injection for exercising `fesplit diff`)")
	cfg, err := parse(args)
	set := map[string]bool{} // flags given on the command line, defaults aside
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case err != nil:
		return err
	case *diurnal && *clients <= 0:
		return fmt.Errorf("study: -diurnal requires -clients > 0, got %d", *clients)
	case !*diurnal && *clients > 0:
		return fmt.Errorf("study: -clients requires -diurnal")
	case !*diurnal && set["horizon"]:
		return fmt.Errorf("study: -horizon requires -diurnal")
	case !*diurnal && set["fleet-batches"]:
		return fmt.Errorf("study: -fleet-batches requires -diurnal")
	case *diurnal && set["node-batches"]:
		return fmt.Errorf("study: -node-batches does not apply to the -diurnal fleet campaign (-fleet-batches does)")
	case *diurnal && set["linger"]:
		return fmt.Errorf("study: -linger does not apply to the -diurnal fleet campaign")
	case set["linger"] && *listen == "":
		return fmt.Errorf("study: -linger requires -listen")
	case set["progress-interval"] && !*diurnal && !*progress && *listen == "":
		return fmt.Errorf("study: -progress-interval requires -progress, -listen or -diurnal")
	case !(*beSlowdown >= 0):
		return fmt.Errorf("study: -be-slowdown must be ≥ 0, got %g", *beSlowdown)
	case *diurnal && *beSlowdown != 0:
		return fmt.Errorf("study: -be-slowdown does not apply to the -diurnal fleet campaign")
	}
	cfg.BESlowdown = *beSlowdown
	// The output directory must exist before the run: runtime.jsonl
	// streams wall-clock telemetry while the study executes.
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	study := fesplit.NewStudy(cfg)
	var tel *telemetry
	if *diurnal || *progress || *listen != "" {
		if tel, err = startTelemetry(stderr, study, *dir, *progress, *progressInterval, *listen); err != nil {
			return err
		}
		if tel.server != nil {
			defer tel.server.Close()
		}
	}
	if *diurnal {
		return runFleetStudy(stderr, study, tel, *clients, *horizon, *fleetBatches, *dir)
	}
	out, err := study.RunAllObserved()
	tel.stop()
	if err == nil {
		err = out.Report.WriteCSVs(*dir)
	}
	var blame []fesplit.PhaseBlame
	if err == nil {
		blame = fesplit.ProfileFromMetrics(out.Metrics)
		spans := out.Spans()
		err = writeFiles(*dir, []outFile{
			{"report.txt", func(f *os.File) error { return out.Report.WriteText(f) }},
			{"metrics.jsonl", func(f *os.File) error { return fesplit.WriteMetricsJSONL(f, out.Metrics) }},
			{"metrics.prom", func(f *os.File) error { return fesplit.WritePrometheus(f, out.Metrics) }},
			{"spans.jsonl", func(f *os.File) error { return fesplit.WriteSpansJSONL(f, spans) }},
			{"report.html", func(f *os.File) error { return out.Report.WriteHTML(f, out.Metrics, out.Exemplars) }},
			{"profile.csv", func(f *os.File) error { return fesplit.WriteProfileCSV(f, blame) }},
			{"scorecard.csv", func(f *os.File) error { return fesplit.WriteScorecardCSV(f, out.Report.Scorecard()) }},
		})
	}
	if err != nil {
		return fmt.Errorf("study: %w", err)
	}
	if err := fesplit.WriteProfileTable(stderr, blame, blameTop); err != nil {
		return err
	}
	if cfg.BESlowdown > 0 && cfg.BESlowdown != 1 {
		fmt.Fprintf(stderr, "study: BE cost model scaled ×%g (injected regression)\n", cfg.BESlowdown)
	}
	fmt.Fprintf(stderr,
		"study: seed %d, scale %s, %d workers — %d metric families, %d tail exemplars\n",
		cfg.Seed, fs.Lookup("scale").Value, cfg.Workers, len(out.Metrics.Families()), len(out.Exemplars))
	if eng := study.Runtime(); eng != nil {
		fmt.Fprintf(stderr, "study: peak heap %.1f MiB, %d records streamed\n",
			float64(eng.HeapWatermark())/(1<<20), eng.Records())
	}
	fmt.Fprintf(stderr, "study: figures + metrics + reports + blame table written to %s\n", *dir)
	if tel != nil && tel.server != nil && *linger > 0 {
		fmt.Fprintf(stderr, "study: holding telemetry endpoint for %s\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// runFleetStudy is the -diurnal branch of `fesplit study`: the
// ephemeral-client fleet campaign over the sharded runner, exporting
// fleet.csv plus the standard runtime telemetry. The headline property
// the scale-smoke gate pins: the heap watermark tracks peak concurrency
// (the diurnal curve), not the client count.
func runFleetStudy(stderr io.Writer, study *fesplit.Study, tel *telemetry, clients int, horizon time.Duration, batches int, dir string) error {
	cfg := study.Config()
	res, err := study.RunFleetStudy(fesplit.FleetStudyConfig{
		Clients: clients,
		Horizon: horizon,
		Batches: batches,
		Workers: cfg.Workers,
	})
	tel.stop()
	if err != nil {
		return fmt.Errorf("study: fleet campaign: %w", err)
	}
	fleetCSV := outFile{"fleet.csv", func(f *os.File) error { return res.WriteFleetCSV(f) }}
	if err := writeFiles(dir, []outFile{fleetCSV}); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	m := res.Merged
	fmt.Fprintf(stderr,
		"study: fleet seed %d — %d arrivals over %s, %d pooled slots (peak live %d), %d rejected, %d tail exemplars\n",
		cfg.Seed, m.Arrivals, horizon, m.Slots, m.PeakLive, m.Rejected, len(res.Exemplars))
	fmt.Fprintf(stderr,
		"study: overall p50/p99 %.1f/%.1f ms — peak heap %.1f MiB for %d clients\n",
		res.Overall.Quantile(0.5), res.Overall.Quantile(0.99),
		float64(res.HeapWatermark)/(1<<20), clients)
	fmt.Fprintf(stderr, "study: fleet.csv written to %s\n", dir)
	return nil
}

// outFile is one exported artifact: its name inside the output
// directory and the writer that renders it.
type outFile struct {
	name  string
	write func(f *os.File) error
}

// writeFiles creates each file under dir and renders it, checking both
// the write and the close.
func writeFiles(dir string, files []outFile) error {
	for _, o := range files {
		f, err := os.Create(filepath.Join(dir, o.name))
		if err != nil {
			return err
		}
		if err := o.write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", o.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
