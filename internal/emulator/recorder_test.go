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
// 15 836 → 14 000 under -race). The budget sits half of the last saving
// below the old cost in the mode where that is lower, so any of these
// costs coming back fails it in both.
func TestRunnerCaptureAllocBudget(t *testing.T) {
	const budget = 14_750
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
