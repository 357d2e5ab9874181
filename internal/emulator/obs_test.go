package emulator

import (
	"bytes"
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/obs"
)

// observedRun drives one small observed Experiment A and returns the
// registry export and the dataset.
func observedRun(t *testing.T, seed int64) (prom []byte, ds *Dataset) {
	t.Helper()
	o := obs.NewTailObserver(obs.TailConfig{})
	r, err := New(seed, cdn.GoogleLike(seed), Options{Nodes: 6, FleetSeed: seed + 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	ds = r.RunExperimentA(AOptions{QueriesPerNode: 3, Interval: 2 * time.Second, QuerySeed: seed + 2})
	var p bytes.Buffer
	if err := obs.WritePrometheus(&p, o.Reg); err != nil {
		t.Fatal(err)
	}
	return p.Bytes(), ds
}

// TestObservedRunDeterministic asserts what the emulator observes is
// replay-exact: two same-seed runs export byte-identical Prometheus
// text and join the same FE ground truth onto every record. (The span
// exports built from those records are analysis.Fold's test.)
func TestObservedRunDeterministic(t *testing.T) {
	p1, ds1 := observedRun(t, 11)
	p2, ds2 := observedRun(t, 11)
	if !bytes.Equal(p1, p2) {
		t.Error("prometheus exports differ across same-seed runs")
	}
	for i := range ds1.Records {
		a, b := ds1.Records[i], ds2.Records[i]
		if a.Fetch != b.Fetch || a.TrueFetch != b.TrueFetch || a.BERTT != b.BERTT {
			t.Fatalf("record %d joined different ground truth across same-seed runs", i)
		}
	}
}

// TestObservedRunCoverage asserts the registry spans every subsystem
// (the obs CLI's acceptance floor: ≥12 families across simnet, tcpsim,
// frontend and backend) and that every completed record carries the
// FE's ground truth a span tree needs: the handed-over FE record with
// its fetch window, and the FE's back-end link.
func TestObservedRunCoverage(t *testing.T) {
	prom, ds := observedRun(t, 13)
	fams := 0
	byPrefix := map[string]int{}
	for _, line := range bytes.Split(prom, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("# TYPE ")) {
			continue
		}
		fams++
		name := string(bytes.Fields(line)[2])
		for _, p := range []string{"sim_", "net_", "tcp_", "fe_", "be_"} {
			if len(name) >= len(p) && name[:len(p)] == p {
				byPrefix[p]++
			}
		}
	}
	if fams < 12 {
		t.Errorf("only %d metric families exported, want ≥12", fams)
	}
	for _, p := range []string{"sim_", "net_", "tcp_", "fe_", "be_"} {
		if byPrefix[p] == 0 {
			t.Errorf("no %s* families exported", p)
		}
	}
	joined := 0
	for i, rec := range ds.Records {
		if rec.Failed {
			continue
		}
		if rec.TrueFetch <= 0 || rec.TrueFetch != rec.Fetch.FetchDone-rec.Fetch.Arrived {
			t.Errorf("record %d: fetch time %v does not match its FE record %+v", i, rec.TrueFetch, rec.Fetch)
		}
		if rec.Fetch.Arrived < rec.IssuedAt || rec.Fetch.Arrived > rec.DoneAt {
			t.Errorf("record %d joined a fetch outside its query window", i)
		}
		if rec.Fetch.BE == "" || rec.BERTT <= 0 {
			t.Errorf("record %d carries no back-end link", i)
		}
		joined++
	}
	if joined == 0 {
		t.Fatal("no records joined")
	}
}
