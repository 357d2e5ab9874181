package fesplit

import (
	"runtime"
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/backend"
	"fesplit/internal/emulator"
)

// TestProbeBoundaryMatchesOwnContent holds the equivalence that lets
// Fig 3, Fig 9 and both caching variants run length-only worlds: each
// of them, built materialised with its cell's offsets, derives from its
// own records exactly the boundary the shared probe (boundaryFor)
// hands it.
func TestProbeBoundaryMatchesOwnContent(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		s := NewStudy(LightStudyConfig(seed))
		check := func(name string, cfg DeploymentConfig, own int) {
			t.Helper()
			probe, err := s.boundaryFor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if own <= 0 || own != probe {
				t.Errorf("seed %d, %s: own content gives boundary %d, the probe %d", seed, name, own, probe)
			}
		}
		materialised := func(off int64, cfg DeploymentConfig, nodes int) *emulator.Runner {
			t.Helper()
			r, err := s.world(off, cfg, emulator.Options{Nodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}

		bing := BingLike(seed + 1)
		r := materialised(21, bing, 8)
		merged := &emulator.Dataset{}
		fe := r.Dep.DefaultFE(r.Fleet.Nodes[0].Point)
		for _, ds := range r.KeywordSweep(fe, r.Fleet.Nodes[0], s.cfg.Fig3Samples, 2*time.Second, seed+23) {
			merged.Records = append(merged.Records, ds.Records...)
		}
		check("fig3", bing, analysis.BoundaryFromDataset(merged))

		for _, cfg := range s.fig9Setups() {
			ds := materialised(51, cfg, s.cfg.Nodes).RunExperimentA(emulator.AOptions{
				QueriesPerNode: s.cfg.QueriesPerNodeA,
				Interval:       s.cfg.IntervalA,
				QuerySeed:      seed + 53,
			})
			check("fig9/"+cfg.BESites[0].Name, cfg, analysis.BoundaryFromDataset(ds))
		}

		for _, cache := range []bool{false, true} {
			cfg := GoogleLike(seed + 2)
			if cache {
				cfg.BEOptions = backend.Options{CacheResults: true, CacheHitTime: 2 * time.Millisecond}
			}
			r := materialised(61, cfg, min(s.cfg.Nodes, 40))
			_, distinct := r.CachingProbe(r.Dep.FEs[0], s.cfg.CachingRepeats, 2*time.Second, seed+63)
			check("caching", cfg, analysis.BoundaryFromDataset(distinct))
		}
	}
}

// TestTimingCellsAllocBudget: Fig 9 and the caching pair read packet
// timings only, so their worlds are length-only and allocate a fraction
// of what building every response body costs (materialised, they
// allocated about 71 KB per Fig 9 query and 59 MB for the caching pair
// at this scale; 17 366 B and 15.3 MB before the 48-byte capture row
// and pointer-free segments, 14 618 B and 11.4 MB after; 12 008 B and
// 9.7 MB once datasets were presized, client connections recycled and
// capture sessions sealed exact-size — 14 779 → 12 166 B under -race —
// with the budgets half that last saving below the old cost). The
// probes are warmed first by Fig 5, so each figure is measured alone.
func TestTimingCellsAllocBudget(t *testing.T) {
	const fig9Budget, cachingBudget = 13_300, 10.5
	s := NewStudy(LightStudyConfig(42))
	if _, err := s.Fig5(); err != nil {
		t.Fatal(err)
	}
	allocated := func(run func() error) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	queries := float64(2 * s.cfg.Nodes * s.cfg.QueriesPerNodeA)
	fig9 := allocated(func() error { _, err := s.Fig9(); return err }) / queries
	caching := allocated(func() error { _, err := s.Caching(); return err }) / 1e6
	t.Logf("Fig 9 %.0f B/query (budget %d), caching pair %.1f MB (budget %.1f)", fig9, fig9Budget, caching, cachingBudget)
	if fig9 > fig9Budget {
		t.Errorf("Fig 9 allocates %.0f B per query, budget %d: does its world build content again?", fig9, fig9Budget)
	}
	if caching > cachingBudget {
		t.Errorf("the caching pair allocates %.1f MB, budget %.1f: do its worlds build content again?", caching, cachingBudget)
	}
}

// TestMatrixProbesEachServiceOnce: the matrix probes each service's
// boundary once, before it dispatches any cell, and hands every cell a
// copy. So a Study whose boundaries are already known runs the matrix
// lighter than a fresh one by exactly the two probes' engine events.
func TestMatrixProbesEachServiceOnce(t *testing.T) {
	cfg := LightStudyConfig(42)
	cfg.Workers = 2
	events := func(s *Study, run func() error) uint64 {
		eng := NewRuntimeEngine()
		s.SetRuntime(eng)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return eng.Snapshot().Events
	}
	fresh := NewStudy(cfg)
	all := events(fresh, func() error { _, err := fresh.RunAll(); return err })

	seeded := NewStudy(cfg)
	probes := events(seeded, func() error {
		for _, c := range seeded.serviceConfigs() {
			if _, err := seeded.boundaryFor(c); err != nil {
				return err
			}
		}
		return nil
	})
	rest := events(seeded, func() error { _, err := seeded.RunAll(); return err })
	if probes == 0 || all != rest+probes {
		t.Errorf("fresh matrix %d events, seeded %d: the difference is not the two probes' %d",
			all, rest, probes)
	}
}
