package fesplit

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// WriteCSVs exports every figure present in the report as CSV files in
// dir (created if needed): fig3.csv … fig9.csv, caching.csv. Missing
// figures are skipped. The files contain the same series a plotting
// tool needs to redraw the paper's figures.
func (r *Report) WriteCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// w writes one file; after the first error it writes nothing more,
	// and WriteCSVs returns that error.
	var err error
	w := func(name string, header []string, rows [][]string) {
		if err != nil {
			return
		}
		var f *os.File
		if f, err = os.Create(filepath.Join(dir, name)); err == nil {
			err = errors.Join(writeCSV(f, header, rows), f.Close())
		}
	}
	f64 := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	dms := func(d time.Duration) string { return f64(ms(d)) }

	if r.Fig3 != nil {
		var rows [][]string
		for _, c := range r.Fig3.Classes {
			st, dy := r.Fig3.Tstatic[c], r.Fig3.Tdynamic[c]
			for i := range st {
				rows = append(rows, []string{
					c.String(), fmt.Sprint(i), f64(st[i]), f64(dy[i]),
				})
			}
		}
		w("fig3.csv", []string{"class", "sample", "tstatic_ms", "tdynamic_ms"}, rows)
	}
	if r.Fig4 != nil {
		var rows [][]string
		for _, row := range r.Fig4 {
			for _, ev := range row.Events {
				dir := "recv"
				if ev.Send {
					dir = "send"
				}
				rows = append(rows, []string{
					f64(row.RTTMS), f64(ev.AtMS), dir,
					fmt.Sprint(ev.Payload), ev.Flags,
				})
			}
		}
		w("fig4.csv", []string{"rtt_ms", "t_ms", "dir", "payload", "flags"}, rows)
	}
	if r.Fig5 != nil {
		var rows [][]string
		for _, f := range r.Fig5 {
			for _, n := range f.Nodes {
				rows = append(rows, []string{
					f.Service, string(n.Node), dms(n.RTT),
					dms(n.MedStatic), dms(n.MedDynamic), dms(n.MedDelta),
					fmt.Sprint(n.N),
				})
			}
		}
		w("fig5.csv", []string{"service", "node", "rtt_ms", "tstatic_ms", "tdynamic_ms", "tdelta_ms", "n"}, rows)
	}
	if r.Fig6 != nil {
		var rows [][]string
		for _, f := range r.Fig6 {
			for _, rtt := range f.RTTsMS {
				rows = append(rows, []string{f.Service, f64(rtt)})
			}
		}
		w("fig6.csv", []string{"service", "rtt_ms"}, rows)
	}
	if r.Fig7 != nil {
		var rows [][]string
		for _, f := range r.Fig7 {
			for _, n := range f.Nodes {
				rows = append(rows, []string{
					f.Service, string(n.Node), dms(n.RTT),
					dms(n.MedStatic), dms(n.MedDynamic),
				})
			}
		}
		w("fig7.csv", []string{"service", "node", "rtt_ms", "tstatic_ms", "tdynamic_ms"}, rows)
	}
	if r.Fig8 != nil {
		var rows [][]string
		for _, f := range r.Fig8 {
			for i, b := range f.Boxes {
				rows = append(rows, []string{
					f.Service, f.Nodes[i],
					f64(b.Min), f64(b.Q1), f64(b.Median), f64(b.Q3), f64(b.Max),
					f64(b.WhiskerLow), f64(b.WhiskerHigh),
				})
			}
		}
		w("fig8.csv",
			[]string{"service", "node", "min_ms", "q1_ms", "median_ms", "q3_ms", "max_ms",
				"whisker_low_ms", "whisker_high_ms"}, rows)
	}
	if r.Fig9 != nil {
		var rows [][]string
		for _, f := range r.Fig9 {
			for _, p := range f.Result.Points {
				rows = append(rows, []string{
					f.Service, string(p.FE), f64(p.Miles), f64(p.TdynamicMS),
					f64(f.Result.SlopeMSPerMile), f64(f.Result.ProcTimeMS),
				})
			}
		}
		w("fig9.csv",
			[]string{"service", "fe", "miles", "tdynamic_ms", "fit_slope_ms_per_mile",
				"fit_intercept_ms"}, rows)
	}
	bucketRows := func(service string, buckets []QueueBucket) [][]string {
		var rows [][]string
		for _, b := range buckets {
			rows = append(rows, []string{
				service, f64(b.StartS),
				fmt.Sprint(b.Offered), fmt.Sprint(b.OK),
				fmt.Sprint(b.Degraded), fmt.Sprint(b.Rejected),
				f64(b.P50Ms), f64(b.P99Ms),
				fmt.Sprint(b.QueueDepth), f64(b.Utilization),
			})
		}
		return rows
	}
	bucketHeader := []string{"service", "start_s", "offered", "ok", "degraded",
		"rejected", "p50_tdyn_ms", "p99_tdyn_ms", "queue_depth", "utilization"}

	if r.Overload != nil {
		w("overload.csv", bucketHeader, bucketRows(r.Overload.Service, r.Overload.Buckets))
	}
	if r.Hotspot != nil {
		w("hotspot.csv", bucketHeader, bucketRows(r.Hotspot.Service, r.Hotspot.Buckets))
	}
	if r.Failover != nil {
		w("failover.csv", bucketHeader, bucketRows(r.Failover.Service, r.Failover.Buckets))
	}
	if r.Capacity != nil {
		var rows [][]string
		for _, p := range r.Capacity.Points {
			rows = append(rows, []string{
				r.Capacity.Service, fmt.Sprint(p.Replicas),
				fmt.Sprint(p.Offered), fmt.Sprint(p.OK),
				f64(p.Utilization), fmt.Sprint(p.MaxQueueDepth),
				f64(p.P50Ms), f64(p.P99Ms),
				f64(r.Capacity.SLOMs), fmt.Sprint(p.MeetsSLO),
			})
		}
		w("capacity.csv",
			[]string{"service", "replicas", "offered", "ok", "utilization",
				"max_queue_depth", "p50_tdyn_ms", "p99_tdyn_ms", "slo_ms",
				"meets_slo"}, rows)
	}
	if r.Caching != nil {
		rows := [][]string{
			{"deployed", f64(r.Caching.Deployed.KS),
				f64(r.Caching.Deployed.MedianSameMS), f64(r.Caching.Deployed.MedianDistinctMS),
				fmt.Sprint(r.Caching.Deployed.CachingDetected)},
			{"control", f64(r.Caching.Control.KS),
				f64(r.Caching.Control.MedianSameMS), f64(r.Caching.Control.MedianDistinctMS),
				fmt.Sprint(r.Caching.Control.CachingDetected)},
		}
		w("caching.csv", []string{"variant", "ks", "same_median_ms", "distinct_median_ms", "detected"}, rows)
	}
	return err
}

// writeCSV writes a header line and rows as CSV.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	cw.Write(header) // a write error sticks, and WriteAll reports it
	return cw.WriteAll(rows)
}
