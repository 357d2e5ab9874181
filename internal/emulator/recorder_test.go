package emulator_test

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
)

// lossyCampaign is a small lossy-access Runner world, length-only like
// the benchmark's: 20 nodes × 24 queries, so each node taps ≈ 1 500
// packets.
func lossyCampaign(t *testing.T) (*emulator.Runner, *emulator.Dataset) {
	t.Helper()
	r, err := emulator.New(71, cdn.GoogleLike(1),
		emulator.Options{Nodes: 20, FleetSeed: 72, Access: lossyAccess, SnapPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	return r, r.RunExperimentA(emulator.AOptions{QueriesPerNode: 24, Interval: time.Second, QuerySeed: 3})
}

// TestRunnerRecordsAreRecorderSessions: a record's events are its
// connection's list in the node's recorder — capacity-capped, sharing
// memory with no other record — and a node's records, taken together,
// are its whole capture in order: every packet belongs to exactly one
// record. Mutations: hand out Session uncapped, or attach one
// connection's list to two records.
func TestRunnerRecordsAreRecorderSessions(t *testing.T) {
	r, ds := lossyCampaign(t)
	type span struct{ lo, hi uintptr }
	var spans []span
	byNode := map[string]map[capture.ConnKey]int{}
	for i, rec := range ds.Records {
		if len(rec.Events) == 0 {
			t.Fatalf("record %d carries no events", i)
		}
		if cap(rec.Events) != len(rec.Events) {
			t.Fatalf("record %d: %d events with capacity %d, want capped", i, len(rec.Events), cap(rec.Events))
		}
		lo := uintptr(unsafe.Pointer(&rec.Events[0]))
		spans = append(spans, span{lo, lo + uintptr(len(rec.Events))*unsafe.Sizeof(rec.Events[0])})
		node := string(rec.Node)
		if byNode[node] == nil {
			byNode[node] = map[capture.ConnKey]int{}
		}
		if j, dup := byNode[node][rec.Key]; dup {
			t.Fatalf("records %d and %d share connection %v", j, i, rec.Key)
		}
		byNode[node][rec.Key] = i
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatal("two records' events overlap in memory")
		}
	}
	for host, rec := range r.Captures() {
		tr, keys := rec.Trace(), byNode[string(host)]
		pos := map[capture.ConnKey]int{}
		for j, e := range tr.Events {
			k := capture.ConnKey{Remote: tr.Hosts[e.Host], LocalPort: e.DstPort, RemotePort: e.SrcPort}
			if e.Dir == tcpsim.DirSend {
				k.LocalPort, k.RemotePort = e.SrcPort, e.DstPort
			}
			i, ok := keys[k]
			if !ok {
				t.Fatalf("node %s packet %d (%v) belongs to no record", host, j, k)
			}
			if got := ds.Records[i].Events[pos[k]]; !reflect.DeepEqual(got, e) {
				t.Fatalf("node %s packet %d: record %d holds %+v at %d, trace %+v", host, j, i, got, pos[k], e)
			}
			pos[k]++
		}
		for k, i := range keys {
			if pos[k] != len(ds.Records[i].Events) {
				t.Fatalf("record %d: %d events, %d in the node's trace", i, len(ds.Records[i].Events), pos[k])
			}
		}
	}
}

// TestRunnerCaptureAllocBudget pins what the campaign above allocates
// per query. Filing each packet under its connection made the node-wide
// slab (grown by doubling) and the copy that split it into sessions go
// (29 147 → 24 245 B/query); drained fast-lane rings handing their slot
// arrays to the next ring made the per-connection 16-slot ring arrays go
// (24 245 → 18 297; 26 016 → 20 011 under -race); rendering and parsing
// HTTP heads and query URLs in one allocation each made fmt, bytes.Buffer
// and net/url go (18 295 → 15 772; 19 988 → 15 880 under -race);
// pointer-free 48-byte capture rows and segments, with no segment boxed
// on the lane, made payload and SACK slice headers go (15 716 → 13 878;
// 15 836 → 14 000 under -race); presized datasets, recycled client
// connections, run-length tap order and exact-size sessions made the
// dataset's regrowth, a connection object per query and each session's
// spare capacity go (13 878 → 11 257; 13 996 → 11 378 under -race). The
// budget sits half of the last saving below the old cost in the mode
// where that is lower, so any of these costs coming back fails it in
// both.
func TestRunnerCaptureAllocBudget(t *testing.T) {
	const budget = 12_570
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, ds := lossyCampaign(t)
	n := len(ds.Records)
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d queries, %.0f B per query", n, perQuery)
	if perQuery > budget {
		t.Fatalf("lossy Runner world allocates %.0f B per query, budget %d", perQuery, budget)
	}
}

// TestRecordsSurviveLaterExperiments: a Runner may run several
// experiments, and a record keeps its Session slice, so a later
// experiment's taps must never write into an earlier record's events —
// the recorder hands its buffer out with the newest session and never
// reuses it. Mutation: pass a handed-out buffer on to the next list.
func TestRecordsSurviveLaterExperiments(t *testing.T) {
	r := newRunner(t, 6)
	opts := emulator.AOptions{QueriesPerNode: 3, Interval: time.Second, QuerySeed: 5}
	first := r.RunExperimentA(opts)
	snap := make([][]capture.Event, len(first.Records))
	for i, rec := range first.Records {
		snap[i] = slices.Clone(rec.Events)
	}
	second := r.RunExperimentA(opts)
	if len(second.Records) != len(first.Records) {
		t.Fatalf("second experiment: %d records, want %d", len(second.Records), len(first.Records))
	}
	for i, rec := range first.Records {
		if !reflect.DeepEqual(rec.Events, snap[i]) {
			t.Fatalf("record %d of the first experiment changed while the second ran", i)
		}
	}
}

// firstFE is an FEResolver that sends every client to one FE after a
// fixed lookup cost.
type firstFE struct{ r *emulator.Runner }

func (f firstFE) Resolve(time.Duration, simnet.HostID, geo.Point) (*frontend.Server, time.Duration) {
	return f.r.Dep.FEs[0], 5 * time.Millisecond
}

// TestDatasetRecordsPresized: every campaign shape reserves exactly the
// records it issues, so a dataset is never regrown — and never
// over-reserved. No count here is a capacity append's growth lands on,
// so every shape fails at the parent. Mutation: start any shape on an
// empty dataset.
func TestDatasetRecordsPresized(t *testing.T) {
	const nodes, per = 3, 5
	aOpts := emulator.AOptions{QueriesPerNode: per, Interval: time.Second, QuerySeed: 5}
	shapes := map[string]func(r *emulator.Runner) []*emulator.Dataset{
		"A": func(r *emulator.Runner) []*emulator.Dataset {
			return []*emulator.Dataset{r.RunExperimentA(aOpts)}
		},
		"A+resolver": func(r *emulator.Runner) []*emulator.Dataset {
			o := aOpts
			o.Resolver = firstFE{r}
			return []*emulator.Dataset{r.RunExperimentA(o)}
		},
		"keep-alive": func(r *emulator.Runner) []*emulator.Dataset {
			return []*emulator.Dataset{r.RunKeepAliveA(aOpts)}
		},
		"open-loop": func(r *emulator.Runner) []*emulator.Dataset {
			return []*emulator.Dataset{r.RunOpenLoop(emulator.OpenLoopOptions{QueriesPerNode: per,
				Horizon: 5 * time.Second, BaseInterval: time.Second,
				SurgeStart: 2 * time.Second, SurgeEnd: 3 * time.Second, SurgeFactor: 3})}
		},
		"B": func(r *emulator.Runner) []*emulator.Dataset {
			ds, err := r.RunExperimentB(emulator.BOptions{FE: r.Dep.FEs[0], Repeats: per, Interval: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			return []*emulator.Dataset{ds}
		},
		"keyword sweep": func(r *emulator.Runner) []*emulator.Dataset {
			var out []*emulator.Dataset
			for _, ds := range r.KeywordSweep(r.Dep.FEs[0], r.Fleet.Nodes[0], per, time.Second, 5) {
				out = append(out, ds)
			}
			return out
		},
		"caching probe": func(r *emulator.Runner) []*emulator.Dataset {
			same, distinct := r.CachingProbe(r.Dep.FEs[0], per, time.Second, 5)
			return []*emulator.Dataset{same, distinct}
		},
		"interactive": func(r *emulator.Runner) []*emulator.Dataset {
			return []*emulator.Dataset{r.Interactive(r.Dep.FEs[0], r.Fleet.Nodes[0], "web search", 200*time.Millisecond)}
		},
	}
	for name, run := range shapes {
		for i, ds := range run(newRunner(t, nodes)) {
			if n := len(ds.Records); n == 0 || cap(ds.Records) != n {
				t.Errorf("%s dataset %d: %d records in capacity %d, want exactly reserved", name, i, n, cap(ds.Records))
			}
		}
	}
}
