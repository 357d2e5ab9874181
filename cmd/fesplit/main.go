// Command fesplit regenerates the paper's figures and runs the
// library's ablations from the command line.
//
// Usage:
//
//	fesplit report       [-seed N] [-scale light|full] [-fig all|3..9|caching] [-csv DIR] [-html FILE]
//	fesplit study        [-seed N] [-scale light|full] [-workers N] [-node-batches K] [-dir DIR]
//	             [-progress] [-progress-interval D] [-listen ADDR] [-linger D]
//	             [-diurnal -clients N [-horizon D] [-fleet-batches K]]
//	fesplit sweep        [-seed N] [-miles M] [-loss P] [-repeats K]
//	fesplit direct       [-seed N] [-service google|bing] [-nodes N]
//	fesplit trace        [-seed N] [-rtt MS] [-o FILE]
//	fesplit decode       FILE
//	fesplit obs          [-seed N] [-service google|bing] [-nodes N] [-dir DIR]
//	             [-tail-pct P] [-max-exemplars N] [-bound-tol D]
//	fesplit profile      [-seed N] [-scale light|full] [-workers N] [-node-batches K]
//	             [-dir DIR] [-top N] [-be-slowdown F]
//	fesplit diff         [-rel-pct P] [-abs S] [-quantiles Q,Q] [-family PFX,PFX] OLD NEW
//	fesplit interactive  [-seed N] [-q KEYWORDS]
//	fesplit live         [-seed N] [-proc MS] [-oneway MS] [-n QUERIES]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"fesplit"
	"fesplit/internal/analysis"
	"fesplit/internal/capture"
	"fesplit/internal/livenet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = cmdReport(os.Args[2:])
	case "study":
		err = cmdStudy(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "direct":
		err = cmdDirect(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "obs":
		err = cmdObs(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "interactive":
		err = cmdInteractive(os.Args[2:])
	case "live":
		err = cmdLive(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fesplit: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) { // -h already printed the flag set's usage
		fmt.Fprintln(os.Stderr, "fesplit:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `fesplit — reproduction of "Characterizing Roles of Front-end Servers in
End-to-End Performance of Dynamic Content Distribution" (IMC 2011)

commands:
  report       regenerate the paper's figures (text tables, optional CSV
               and self-contained HTML with inline SVG via -html)
  study        run the full observed study on a worker pool and export
               figures, metrics, spans and reports into one directory;
               outputs are byte-identical for any -workers value and with
               telemetry (-progress, -listen, runtime.jsonl) on or off;
               default-FE campaign records are folded into accumulators
               per node batch, so memory is bounded by one batch world;
               -diurnal -clients N runs the ephemeral-client fleet campaign
               (open-loop diurnal arrivals, heap tracks peak concurrency)
  sweep        FE-placement ablation: the placement / fetch-time trade-off
  direct       no-FE baseline: clients straight to the data center
  trace        capture one query session and print its packet timeline
  decode       print a binary trace file captured with 'trace -o'
  obs          run a seeded observed experiment and export Chrome trace,
               Prometheus + JSONL metrics, tail-sampled JSONL spans and
               an HTML report
  profile      run the observed study and attribute every sim-nanosecond
               of query time to an exclusive critical-path phase: top-N
               blame table per service (stderr + profile.csv), lossless
               metrics.jsonl for 'fesplit diff', phase waterfalls in
               report.html; byte-identical for any -workers value
  diff         compare two profiled runs sketch-by-sketch (quantile
               deltas with relative + absolute thresholds); prints a
               verdict table and exits nonzero on regression — the
               CI perf gate (see docs/PROFILING.md)
  interactive  run the Section-6 search-as-you-type probe
  live         run the architecture over real TCP sockets (loopback)

run 'fesplit <command> -h' for flags.
`)
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	parse := studyFlags(fs, false)
	fig := fs.String("fig", "all", "figure to regenerate: all|3|4|5|6|7|8|9|caching")
	csvDir := fs.String("csv", "", "also export figure data as CSV files into DIR")
	htmlFile := fs.String("html", "", "also render the report as a self-contained HTML page (inline SVG figures) to FILE")
	cfg, err := parse(args)
	if err != nil {
		return err
	}
	study := fesplit.NewStudy(cfg)
	// -fig all is the observed matrix: the Report is identical to
	// RunAll's (observation never perturbs the simulations), and the
	// registry lets the HTML page carry the metrics sections. A single
	// figure runs its serial method into an otherwise empty report.
	run := study.RunAllObserved
	if *fig != "all" {
		run = func() (*fesplit.StudyOutput, error) {
			rep := &fesplit.Report{Config: cfg}
			var err error
			switch *fig {
			case "3":
				rep.Fig3, err = study.Fig3()
			case "4":
				rep.Fig4, err = study.Fig4()
			case "5":
				rep.Fig5, err = study.Fig5()
			case "6":
				rep.Fig6, err = study.Fig6()
			case "7":
				rep.Fig7, err = study.Fig7()
			case "8":
				rep.Fig8, err = study.Fig8()
			case "9":
				rep.Fig9, err = study.Fig9()
			case "caching":
				rep.Caching, err = study.Caching()
			default:
				err = fmt.Errorf("unknown -fig %q", *fig)
			}
			return &fesplit.StudyOutput{Report: rep}, err
		}
	}
	out, err := runObserved(run, nil, *csvDir, "", func(out *fesplit.StudyOutput) []outFile {
		if *htmlFile == "" {
			return nil
		}
		return []outFile{htmlReport(*htmlFile, out)}
	})
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if *csvDir != "" {
		fmt.Fprintf(os.Stderr, "CSV figure data written to %s\n", *csvDir)
	}
	if *htmlFile != "" {
		fmt.Fprintf(os.Stderr, "HTML report written to %s\n", *htmlFile)
	}
	return out.Report.WriteText(os.Stdout)
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	miles := fs.Float64("miles", 2500, "client to data-center distance (miles)")
	loss := fs.Float64("loss", 0, "client-FE loss rate (e.g. 0.03 for the WiFi scenario)")
	repeats := fs.Int("repeats", 15, "queries per FE position")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pts, err := fesplit.PlacementSweep(fesplit.SweepConfig{
		TotalMiles: *miles,
		ClientLoss: *loss,
		Repeats:    *repeats,
		Seed:       *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("FE placement sweep: client ↔ BE = %.0f miles, client-leg loss %.1f%%\n\n",
		*miles, *loss*100)
	fesplit.WritePlacementSweep(os.Stdout, pts)
	fmt.Println("\nobservation: overall delay favors FEs near the client, but the gains")
	fmt.Println("flatten below the threshold — there, Tdynamic is governed solely by the")
	fmt.Println("FE-BE fetch time, which grows as the FE moves away from the data center.")
	return nil
}

func cmdDirect(args []string) error {
	fs := flag.NewFlagSet("direct", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	service := fs.String("service", "google", "deployment flavor: google or bing")
	nodes := fs.Int("nodes", 40, "vantage nodes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg fesplit.DeploymentConfig
	switch *service {
	case "google":
		cfg = fesplit.SingleBE(fesplit.GoogleLike(*seed), "google-be-lenoir")
	case "bing":
		cfg = fesplit.SingleBE(fesplit.BingLike(*seed), "bing-be-virginia")
	default:
		return fmt.Errorf("unknown service %q", *service)
	}
	res, err := fesplit.RunDirectBaseline(cfg, *nodes, *seed+1, 5, 2*time.Second, *seed+2)
	if err != nil {
		return err
	}
	fmt.Printf("no-FE baseline (%s-like, single data center), %d nodes\n\n", *service, *nodes)
	fmt.Printf("%-12s %12s %14s %6s\n", "node", "RTT(ms)", "overall(ms)", "N")
	for _, r := range res {
		fmt.Printf("%-12s %12.1f %14.1f %6d\n",
			r.Node, float64(r.RTT)/1e6, float64(r.Overall)/1e6, r.N)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	rttMS := fs.Float64("rtt", 40, "client-FE RTT in milliseconds")
	out := fs.String("o", "", "also write the binary trace to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	study := fesplit.NewStudy(fesplit.LightStudyConfig(*seed))
	tr, err := study.CaptureSession(time.Duration(*rttMS * float64(time.Millisecond)))
	if err != nil {
		return err
	}
	if len(tr.Events) == 0 {
		return fmt.Errorf("trace: empty capture")
	}
	start := tr.Events[0].Time
	fmt.Printf("one search-query session at RTT %.1f ms (%d packet events):\n\n",
		*rttMS, len(tr.Events))
	fmt.Printf("%10s %5s %8s %s\n", "t(ms)", "dir", "bytes", "flags")
	for _, ev := range tr.Events {
		fmt.Printf("%10.2f %5s %8d %s\n",
			float64(ev.Time-start)/1e6, ev.Dir, len(ev.Seg.Data), ev.Seg.Flags)
	}
	fmt.Println(traceSummary(tr))
	if *out != "" {
		if err := writeFiles("", []outFile{{*out, func(f *os.File) error { return tr.Encode(f) }}}); err != nil {
			return err
		}
		fmt.Printf("\n(wrote binary trace with %d events to %s)\n", len(tr.Events), *out)
	}
	return nil
}

// traceSummary condenses a packet trace into one metrics line.
func traceSummary(tr *capture.Trace) string {
	var sent, recv, retrans, payload int
	for _, ev := range tr.Events {
		plen := ev.PayloadLen
		if l := len(ev.Seg.Data); l > plen {
			plen = l
		}
		payload += plen
		if ev.Seg.Retrans {
			retrans++
		}
		if ev.Dir == tcpsim.DirSend {
			sent++
		} else {
			recv++
		}
	}
	keys, _ := tr.Sessions()
	return fmt.Sprintf("summary: %d sessions, %d packets (%d sent / %d received), %d retransmitted, %d payload bytes",
		len(keys), len(tr.Events), sent, recv, retrans, payload)
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("decode: need exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := capture.Decode(f)
	if err != nil {
		return fmt.Errorf("decode: %s is not a valid fesplit trace: %w", fs.Arg(0), err)
	}
	tr.WriteText(os.Stdout, 200)
	fmt.Println(traceSummary(tr))
	return nil
}

func cmdInteractive(args []string) error {
	fs := flag.NewFlagSet("interactive", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	keywords := fs.String("q", "cloud computing performance", "keywords to type")
	if err := fs.Parse(args); err != nil {
		return err
	}
	study := fesplit.NewStudy(fesplit.LightStudyConfig(*seed))
	res, err := study.Interactive(*keywords)
	if err != nil {
		return err
	}
	fmt.Printf("typing %q against %s:\n\n", res.Keywords, res.Service)
	fmt.Printf("%d keystrokes, %d TCP connections (a fresh connection per letter)\n\n",
		res.Keystrokes, res.Connections)
	fmt.Printf("%-10s %12s\n", "keystroke", "Tdynamic(ms)")
	for i, v := range res.PerKeystrokeTdynMS {
		fmt.Printf("%-10d %12.1f\n", i+1, v)
	}
	fmt.Printf("\nevery per-keystroke session fits the basic split-TCP model: %v\n", res.ModelHolds)
	return nil
}

func cmdLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	procMS := fs.Int("proc", 120, "back-end processing time (ms)")
	oneWayMS := fs.Int("oneway", 8, "injected FE→client one-way delay (ms)")
	queries := fs.Int("n", 4, "queries to run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := workload.DefaultContentSpec("live")
	be, err := livenet.StartBE(spec, workload.CostModel{
		Base: time.Duration(*procMS) * time.Millisecond, CV: 0.1,
	}, *seed)
	if err != nil {
		return err
	}
	defer be.Close()
	fe, err := livenet.StartFE(be.Addr(), spec.StaticPrefix(),
		12*time.Millisecond, time.Duration(*oneWayMS)*time.Millisecond)
	if err != nil {
		return err
	}
	defer fe.Close()
	fmt.Printf("live BE %s, FE %s (emulated RTT %d ms)\n\n", be.Addr(), fe.Addr(), 2**oneWayMS)

	gen := workload.NewGenerator(*seed + 1)
	var results []*livenet.QueryResult
	var payloads [][]byte
	for i := 0; i < *queries; i++ {
		q := gen.Query(workload.ClassGranular)
		res, err := livenet.RunQuery(fe.Addr(), q)
		if err != nil {
			return err
		}
		results = append(results, res)
		payloads = append(payloads, res.Body)
	}
	boundary := livenet.SnapBoundary(results, analysis.StaticBoundary(payloads))
	fmt.Printf("content boundary: %d bytes (configured static prefix %d)\n\n",
		boundary, len(spec.StaticPrefix()))
	fmt.Printf("%-6s %10s %10s %10s %10s\n", "query", "t3(ms)", "t4(ms)", "t5(ms)", "Tdelta")
	for i, res := range results {
		tm, ok := livenet.ExtractTiming(res, boundary)
		if !ok {
			return fmt.Errorf("timing extraction failed for query %d", i)
		}
		fmt.Printf("%-6d %10.1f %10.1f %10.1f %10.1f\n", i+1,
			float64(tm.T3)/1e6, float64(tm.T4)/1e6, float64(tm.T5)/1e6, float64(tm.Tdelta)/1e6)
	}
	return nil
}
