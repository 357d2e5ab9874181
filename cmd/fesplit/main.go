// Command fesplit regenerates the paper's figures and runs the
// library's ablations from the command line. `fesplit help` lists the
// subcommands and `fesplit <command> -h` a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fesplit"
	"fesplit/internal/baseline"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/tcpsim"
)

// commands is the one subcommand table: run dispatches on it and usage
// prints it, so the two cannot list different commands.
var commands = []struct {
	name    string
	summary string // one usage line per line
	run     func(args []string, stdout, stderr io.Writer) error
}{
	{"report", `regenerate one paper figure (-fig N: text table, optional
CSV and self-contained HTML with inline SVG via -html)`, cmdReport},
	{"study", `run the full observed study on a worker pool and export
figures, metrics, spans, reports and the critical-path
blame table (profile.csv; top phases on stderr) into one
directory, byte-identical for any -workers value and with
telemetry (-progress, -listen, runtime.jsonl) on or off;
-diurnal -clients N runs the ephemeral-client fleet campaign
(open-loop diurnal arrivals, heap tracks peak concurrency)`, cmdStudy},
	{"diff", `compare two study runs sketch-by-sketch (quantile
deltas with relative + absolute thresholds); prints a
verdict table and exits nonzero on regression — the
CI perf gate (see docs/PROFILING.md)`, cmdDiff},
	{"trace", `capture one query session and print its packet timeline`, cmdTrace},
	{"decode", `print a binary trace file captured with 'trace -o'`, cmdDecode},
	{"sweep", `FE-placement ablation: the placement / fetch-time trade-off`, cmdSweep},
	{"direct", `no-FE baseline: clients straight to the data center`, cmdDirect},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code:
// 0 on success, 1 when the command fails (bad flag, rejected argument,
// failed run, `diff` regression), 2 when no known command was named.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:], stdout, stderr)
		if err != nil && !errors.Is(err, flag.ErrHelp) { // -h already printed the flag set's usage
			fmt.Fprintln(stderr, "fesplit:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "fesplit: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, `fesplit — reproduction of "Characterizing Roles of Front-end Servers in
End-to-End Performance of Dynamic Content Distribution" (IMC 2011)

commands:
`)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name,
			strings.ReplaceAll(c.summary, "\n", "\n"+strings.Repeat(" ", 15)))
	}
	fmt.Fprint(w, "\nrun 'fesplit <command> -h' for flags.\n")
}

// newFlagSet returns a flag set that reports a bad flag as an error
// from Parse — never by exiting — and prints its usage to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// cmdReport regenerates one figure: it runs that figure's serial
// method into an otherwise empty report and writes it. The whole matrix
// is `fesplit study`.
func cmdReport(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("report", stderr)
	parse := studyFlags(fs, false)
	fig := fs.String("fig", "", "figure to regenerate: 3|4|5|6|7|8|9|caching")
	csvDir := fs.String("csv", "", "also export figure data as CSV files into DIR")
	htmlFile := fs.String("html", "", "also render the report as a self-contained HTML page (inline SVG figures) to FILE")
	cfg, err := parse(args)
	if err != nil {
		return err
	}
	study := fesplit.NewStudy(cfg)
	rep := &fesplit.Report{Config: cfg}
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
	case "", "all":
		return fmt.Errorf("report: -fig names one figure; 'fesplit study' runs them all")
	default:
		return fmt.Errorf("report: unknown -fig %q", *fig)
	}
	if err == nil && *csvDir != "" {
		err = rep.WriteCSVs(*csvDir)
	}
	if err == nil && *htmlFile != "" {
		err = writeFiles("", []outFile{{*htmlFile, func(f *os.File) error { return rep.WriteHTML(f, nil, nil) }}})
	}
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if *csvDir != "" {
		fmt.Fprintf(stderr, "CSV figure data written to %s\n", *csvDir)
	}
	if *htmlFile != "" {
		fmt.Fprintf(stderr, "HTML report written to %s\n", *htmlFile)
	}
	return rep.WriteText(stdout)
}

func cmdSweep(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sweep", stderr)
	seed := fs.Int64("seed", 42, "experiment seed")
	miles := fs.Float64("miles", 2500, "client to data-center distance (miles)")
	loss := fs.Float64("loss", 0, "client-FE loss rate (e.g. 0.03 for the WiFi scenario)")
	repeats := fs.Int("repeats", 15, "queries per FE position")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pts, err := baseline.PlacementSweep(baseline.SweepConfig{
		TotalMiles: *miles,
		ClientLoss: *loss,
		Repeats:    *repeats,
		Seed:       *seed,
	})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	fmt.Fprintf(stdout, "FE placement sweep: client ↔ BE = %.0f miles, client-leg loss %.1f%%\n\n",
		*miles, *loss*100)
	fesplit.WritePlacementSweep(stdout, pts)
	var empty []string
	for _, p := range pts {
		if p.N == 0 {
			empty = append(empty, fmt.Sprintf("%.2f", p.Fraction))
		}
	}
	if len(empty) > 0 {
		return fmt.Errorf("sweep: no query completed at FE fraction %s (client-leg loss %g, %d repeats)",
			strings.Join(empty, ", "), *loss, *repeats)
	}
	return nil
}

func cmdDirect(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("direct", stderr)
	seed := fs.Int64("seed", 42, "experiment seed")
	service := fs.String("service", "google", "deployment flavor: google or bing")
	nodes := fs.Int("nodes", 40, "vantage nodes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg cdn.Config
	switch *service {
	case "google":
		cfg = cdn.SingleBE(cdn.GoogleLike(*seed), "google-be-lenoir")
	case "bing":
		cfg = cdn.SingleBE(cdn.BingLike(*seed), "bing-be-virginia")
	default:
		return fmt.Errorf("direct: unknown -service %q", *service)
	}
	res, err := fesplit.RunDirectBaseline(cfg, *nodes, *seed+1, 5, 2*time.Second, *seed+2)
	if err != nil {
		return fmt.Errorf("direct: %w", err)
	}
	fmt.Fprintf(stdout, "no-FE baseline (%s-like, single data center), %d nodes\n\n", *service, *nodes)
	fmt.Fprintf(stdout, "%-12s %12s %14s %6s\n", "node", "RTT(ms)", "overall(ms)", "N")
	for _, r := range res {
		fmt.Fprintf(stdout, "%-12s %12.1f %14.1f %6d\n",
			r.Node, float64(r.RTT)/1e6, float64(r.Overall)/1e6, r.N)
	}
	return nil
}

func cmdTrace(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("trace", stderr)
	seed := fs.Int64("seed", 42, "experiment seed")
	rttMS := fs.Float64("rtt", 40, "client-FE RTT in milliseconds")
	out := fs.String("o", "", "also write the binary trace to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*rttMS > 0) {
		return fmt.Errorf("trace: -rtt must be > 0 ms, got %g", *rttMS)
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
	fmt.Fprintf(stdout, "one search-query session at RTT %.1f ms (%d packet events):\n\n",
		*rttMS, len(tr.Events))
	fmt.Fprintf(stdout, "%10s %5s %8s %s\n", "t(ms)", "dir", "bytes", "flags")
	for _, ev := range tr.Events {
		fmt.Fprintf(stdout, "%10.2f %5s %8d %s\n",
			float64(ev.Time-start)/1e6, ev.Dir, ev.Len, ev.Flags)
	}
	fmt.Fprintln(stdout, traceSummary(tr))
	if *out != "" {
		if err := writeFiles("", []outFile{{*out, func(f *os.File) error { return tr.Encode(f) }}}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n(wrote binary trace with %d events to %s)\n", len(tr.Events), *out)
	}
	return nil
}

// traceSummary condenses a packet trace into one metrics line.
func traceSummary(tr *capture.Trace) string {
	var sent, recv, retrans, payload int
	for _, ev := range tr.Events {
		payload += int(ev.Len)
		if ev.Retransmitted() {
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

func cmdDecode(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("decode", stderr)
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
	tr.WriteText(stdout, 200)
	fmt.Fprintln(stdout, traceSummary(tr))
	return nil
}
