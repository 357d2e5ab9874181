package fesplit

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/stats"
)

func fleetStudyCSV(t *testing.T, workers int, clients int, horizon time.Duration) (string, *FleetStudyResult) {
	t.Helper()
	cfg := LightStudyConfig(77)
	cfg.Workers = workers
	study := NewStudy(cfg)
	eng := NewRuntimeEngine()
	study.SetRuntime(eng)
	res, err := study.RunFleetStudy(FleetStudyConfig{
		Clients: clients,
		Horizon: horizon,
		Batches: 2,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteFleetCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), res
}

func TestRunFleetStudySmall(t *testing.T) {
	csv1, res := fleetStudyCSV(t, 1, 400, time.Minute)
	if res.Merged.Arrivals != 400 || res.Merged.Completed != 400 {
		t.Fatalf("arrivals %d completed %d, want 400 each", res.Merged.Arrivals, res.Merged.Completed)
	}
	if res.Merged.Slots >= 200 {
		t.Fatalf("slot pool %d did not stay far below the client count", res.Merged.Slots)
	}
	if res.Extracted < (400-res.Merged.Rejected)*9/10 {
		t.Fatalf("only %d/400 sessions extracted", res.Extracted)
	}
	if res.Overall.Count() != 400 {
		t.Fatalf("overall sketch saw %d records", res.Overall.Count())
	}
	if p50 := res.Overall.Quantile(0.5); p50 <= 0 {
		t.Fatalf("overall p50 %.3f ms", p50)
	}
	if len(res.Exemplars) == 0 {
		t.Fatal("no tail exemplars survived")
	}
	for _, e := range res.Exemplars {
		if e.Span == nil || e.Span.Name != "query" {
			t.Fatalf("exemplar kept without its span tree: %+v", e.Span)
		}
	}
	if !strings.HasPrefix(csv1, "row,arrivals,") || !strings.Contains(csv1, "\ntotal,400,400,") {
		t.Fatalf("fleet.csv malformed:\n%s", csv1)
	}

	// The headline determinism contract: workers buy wall-clock time,
	// never different bytes.
	csv4, _ := fleetStudyCSV(t, 4, 400, time.Minute)
	if csv1 != csv4 {
		t.Fatalf("fleet.csv differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", csv1, csv4)
	}
}

// TestFleetStudyHeapBound is the bounded-memory gate at 10⁴ clients:
// the campaign's peak live heap must stay under a pinned absolute
// bound that a materialized 10⁴-node fleet with retained records could
// not meet. At 10⁶ clients the same flat watermark is reported (not
// asserted) by the scale-smoke script — the curve, not the client
// count, sets peak concurrency.
func TestFleetStudyHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-client campaign in -short mode")
	}
	_, res := fleetStudyCSV(t, 2, 10_000, 4*time.Minute)
	if res.Merged.Completed != 10_000 {
		t.Fatalf("completed %d/10000", res.Merged.Completed)
	}
	const heapBound = 192 << 20
	if res.HeapWatermark == 0 || res.HeapWatermark > heapBound {
		t.Fatalf("heap watermark %.1f MiB, bound %.0f MiB",
			float64(res.HeapWatermark)/(1<<20), float64(heapBound)/(1<<20))
	}
	// Slots scale with peak arrival rate (~42/s × ~200 ms sessions),
	// not with the 10⁴ arrivals.
	if res.Merged.Slots > 2_000 {
		t.Fatalf("slot pool %d for 10k clients — recycling broken", res.Merged.Slots)
	}
}

// fleetSeries runs the fleet study's campaign with a registry behind
// every batch observer and its fold — what an observed fleet would
// export — and returns each family's series count with the pooled slot
// total.
func fleetSeries(t *testing.T, clients int) (map[string]int, int) {
	t.Helper()
	fc := FleetStudyConfig{Clients: clients, Horizon: 10 * time.Minute, Batches: 2, Workers: 2}
	dep := GoogleLike(44)
	res, obsvs, _, err := emulator.RunFleet(emulator.FleetShardedOptions{
		SimSeed: 143, Deployment: dep,
		Fleet:   emulator.FleetOptions{Clients: clients, Curve: fc.Curve(), QuerySeed: 144, FleetSeed: 145},
		Batches: fc.Batches, Workers: fc.Workers,
		Observe: func(int) *obs.Observer { return obs.NewTailObserver(obs.TailConfig{}) },
		Sink: func(_ int, o *obs.Observer) emulator.RecordSink {
			return &fleetStudySink{
				fold:    analysis.NewFold(o.Reg, dep.Name, dep.Name, 0, o.Tail, DefaultBoundTolerance),
				overall: stats.NewSketch(0), dynamic: stats.NewSketch(0),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]int{}
	for _, o := range obsvs {
		for _, f := range o.Reg.Families() {
			series[f.Name] += len(f.Series())
		}
	}
	return series, emulator.MergeFleetResults(res...).Slots
}

// TestFleetSeriesTrackSlotsNotClients: ten times the clients on the
// same compressed day must not add series per client. Every family but
// two is label-for-label the same; the per-vantage family has one
// series per pooled slot (peak concurrency, not arrivals — and Bounded,
// so it collapses past DefaultCardinality) and the per-FE family one
// per serving FE. Measured at seed 42: 214 series at 200 clients, 216
// at 2 000, 230 at 20 000. Mutation: label the vantage family by
// client port.
func TestFleetSeriesTrackSlotsNotClients(t *testing.T) {
	few, _ := fleetSeries(t, 200)
	many, slots := fleetSeries(t, 2000)
	const perSlot, perFE = "vantage_overall_seconds", "fe_overall_seconds"
	for name, n := range few {
		if name != perSlot && name != perFE && many[name] != n {
			t.Errorf("%s: %d series at 200 clients, %d at 2000", name, n, many[name])
		}
	}
	if len(many) != len(few) {
		t.Errorf("%d families at 2000 clients, %d at 200", len(many), len(few))
	}
	if n := many[perSlot]; n == 0 || n > min(slots, 2*obs.DefaultCardinality) {
		t.Errorf("%s: %d series for %d pooled slots", perSlot, n, slots)
	}
	// fe_concurrency is registered once per FE and batch.
	if n, fes := many[perFE], many["fe_concurrency"]; n == 0 || n > fes {
		t.Errorf("%s: %d series, want at most one per FE and batch (%d)", perFE, n, fes)
	}
}
