package fesplit

import (
	"fmt"
	"testing"
)

// fmtData renders a scenario result for byte-level comparison.
func fmtData(v interface{}) string { return fmt.Sprintf("%+v", v) }

// The queue tests assert each cell's rows on the light seed-42 study; beside
// configuration checks they keep conservation: one outcome per offered query.
func conserved(buckets []QueueBucket) error {
	for _, b := range buckets {
		if b.OK+b.Degraded+b.Rejected != b.Offered {
			return fmt.Errorf("bucket %.0f s: ok %d + degraded %d + rejected %d != offered %d",
				b.StartS, b.OK, b.Degraded, b.Rejected, b.Offered)
		}
	}
	return nil
}

func TestOverloadScenario(t *testing.T) {
	assertScorecard(t, 42, func(_ *Study, r *Report) error {
		if r.Overload = seed42Report(t).Overload; r.Overload.Replicas <= 0 || r.Overload.QueueCap <= 0 {
			return fmt.Errorf("scenario misconfigured: %+v", r.Overload)
		}
		return conserved(r.Overload.Buckets)
	})
}

func TestHotspotScenario(t *testing.T) {
	assertScorecard(t, 42, func(_ *Study, r *Report) error {
		r.Hotspot = seed42Report(t).Hotspot
		return conserved(r.Hotspot.Buckets)
	})
}

func TestFailoverScenario(t *testing.T) {
	assertScorecard(t, 42, func(_ *Study, r *Report) error {
		if r.Failover = seed42Report(t).Failover; r.Failover.FromBE == r.Failover.ToBE {
			return fmt.Errorf("failover is a no-op: %s → %s", r.Failover.FromBE, r.Failover.ToBE)
		}
		return conserved(r.Failover.Buckets)
	})
}

// TestCapacitySweep also holds the sweep's shape: at least three
// replica counts, in decreasing order, under one offered load.
func TestCapacitySweep(t *testing.T) {
	assertScorecard(t, 42, func(_ *Study, r *Report) error {
		r.Capacity = seed42Report(t).Capacity
		p := r.Capacity.Points
		for i := 1; i < len(p); i++ {
			if p[i].Replicas >= p[i-1].Replicas || p[i].Offered != p[i-1].Offered {
				return fmt.Errorf("sweep not in decreasing replica order under one load: %+v", p)
			}
		}
		if len(p) < 3 {
			return fmt.Errorf("sweep too small: %+v", p)
		}
		return nil
	})
}

// TestQueueScenariosDeterministic pins byte-level reproducibility of
// the scenario cells: two studies with equal seeds produce identical
// data, and the scenarios are independent of each other (running one
// does not perturb another).
func TestQueueScenariosDeterministic(t *testing.T) {
	run := func() (*OverloadData, *CapacityData) {
		s := NewStudy(LightStudyConfig(42))
		o, err := s.Overload()
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Capacity()
		if err != nil {
			t.Fatal(err)
		}
		return o, c
	}
	o1, c1 := run()
	o2, c2 := run()
	if fmtData(*o1) != fmtData(*o2) {
		t.Errorf("overload not deterministic:\n%s\nvs\n%s", fmtData(*o1), fmtData(*o2))
	}
	if fmtData(*c1) != fmtData(*c2) {
		t.Errorf("capacity not deterministic:\n%s\nvs\n%s", fmtData(*c1), fmtData(*c2))
	}
}
