package emulator

import (
	"slices"
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/obs"
)

// TestFetchJoinSurvivesPortReuse pins the FE-log join against ephemeral
// port reuse: when two sessions from the same client host used the same
// source port at different times, each query window must join the fetch
// record whose GET arrived inside it. (What a span tree draws from the
// joined entry is analysis.Fold's test.)
func TestFetchJoinSurvivesPortReuse(t *testing.T) {
	const port = 4242
	early := frontend.FetchRecord{
		Client: "node-1", ClientPort: port,
		Arrived:   1 * time.Second,
		StaticAt:  1100 * time.Millisecond,
		FetchDone: 1200 * time.Millisecond,
	}
	late := frontend.FetchRecord{
		Client: "node-1", ClientPort: port,
		Arrived:   61 * time.Second,
		StaticAt:  61100 * time.Millisecond,
		FetchDone: 61400 * time.Millisecond,
	}
	log := []frontend.FetchRecord{early, late}
	if fr, _ := findFetch(log, "node-1", port, 900*time.Millisecond, 1500*time.Millisecond); fr != early {
		t.Fatalf("early window joined %+v, want its own log entry", fr)
	}
	if fr, _ := findFetch(log, "node-1", port, 60900*time.Millisecond, 61700*time.Millisecond); fr != late {
		t.Fatalf("late window joined %+v, want its own log entry", fr)
	}
	// A window covering neither session joins nothing rather than
	// guessing.
	if fr, ok := findFetch(log, "node-1", port, 30*time.Second, 31*time.Second); ok || fr != (frontend.FetchRecord{}) {
		t.Errorf("window outside both sessions still joined %+v", fr)
	}
}

func TestMatchFetch(t *testing.T) {
	log := []frontend.FetchRecord{
		{Client: "node-0", ClientPort: 4000, Arrived: 10 * time.Second},
		{Client: "node-0", ClientPort: 4000, Arrived: 20 * time.Second},
	}
	if fr, ok := findFetch(log, "node-0", 4000, 19*time.Second, 21*time.Second); !ok || fr.Arrived != 20*time.Second {
		t.Fatalf("findFetch picked %v ok=%v, want the 20s record", fr.Arrived, ok)
	}
	if _, ok := findFetch(log, "node-0", 4000, 12*time.Second, 13*time.Second); ok {
		t.Fatal("findFetch matched a window containing no arrival")
	}
	if _, ok := findFetch(nil, "node-0", 4000, 0, time.Hour); ok {
		t.Fatal("findFetch matched an empty log")
	}
}

// TestGroundTruthWithoutObserver: what a world records does not depend
// on who watches it. An unobserved world and its twin carrying a tail
// observer join the same FE ground truth onto every record, and every
// completed non-503 record has a fetch time. Mutation: gate the FE log
// or the join on the observer again.
func TestGroundTruthWithoutObserver(t *testing.T) {
	run := func(o *obs.Observer) *Dataset {
		r, err := New(21, cdn.GoogleLike(21), Options{Nodes: 30, FleetSeed: 22, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		return r.RunExperimentA(AOptions{QueriesPerNode: 5, Interval: 2 * time.Second, QuerySeed: 23})
	}
	bare, watched := run(nil), run(obs.NewTailObserver(obs.TailConfig{}))
	if len(bare.Records) != len(watched.Records) {
		t.Fatalf("records: %d unobserved, %d observed", len(bare.Records), len(watched.Records))
	}
	for i := range bare.Records {
		a, b := &bare.Records[i], &watched.Records[i]
		if a.TrueFetch != b.TrueFetch || a.Fetch != b.Fetch || a.BE != b.BE || a.BERTT != b.BERTT {
			t.Fatalf("record %d: unobserved {%v %+v %s %v}, observed {%v %+v %s %v}",
				i, a.TrueFetch, a.Fetch, a.BE, a.BERTT, b.TrueFetch, b.Fetch, b.BE, b.BERTT)
		}
		if !a.Failed && a.Status != 503 && a.TrueFetch <= 0 {
			t.Fatalf("completed record %d (status %d) has no ground-truth fetch time", i, a.Status)
		}
	}
}

// TestRunnerFELogBounded: a Runner world prunes its FE logs as the
// fleet does, so after a campaign every log holds at most the
// completions since the last prune plus what was in flight, and the
// busiest FE has dropped entries. Mutation: stop pruning in complete.
func TestRunnerFELogBounded(t *testing.T) {
	r, err := New(31, cdn.GoogleLike(31), Options{Nodes: 40, FleetSeed: 32})
	if err != nil {
		t.Fatal(err)
	}
	ds := r.RunExperimentA(AOptions{QueriesPerNode: 6, Interval: 2 * time.Second, QuerySeed: 33})
	// Peak in-flight count: +1 at issue, -1 at completion (a failed
	// record stays in flight).
	type step struct {
		at time.Duration
		d  int
	}
	var steps []step
	for _, rec := range ds.Records {
		steps = append(steps, step{rec.IssuedAt, 1})
		if !rec.Failed {
			steps = append(steps, step{rec.DoneAt, -1})
		}
	}
	slices.SortFunc(steps, func(a, b step) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return b.d - a.d // issue before completion at the same instant
	})
	live, peak := 0, 0
	for _, s := range steps {
		live += s.d
		peak = max(peak, live)
	}
	var busiest *frontend.Server
	for _, fe := range r.Dep.FEs {
		if n := len(fe.FetchLog()); n > pruneEvery+peak {
			t.Errorf("FE %s holds %d log entries, bound %d (pruneEvery %d + peak in flight %d)",
				fe.Host(), n, pruneEvery+peak, pruneEvery, peak)
		}
		if busiest == nil || fe.Served() > busiest.Served() {
			busiest = fe
		}
	}
	if busiest.FetchLogBase() == 0 {
		t.Fatalf("busiest FE %s served %d requests and pruned none", busiest.Host(), busiest.Served())
	}
}
