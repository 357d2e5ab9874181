package fesplit_test

import (
	"fmt"

	"fesplit"
)

// ExampleStudy is the quick start: build a light-scale study, run the
// fixed-FE campaign of Figure 5, and read off — per service — the RTT
// below which Tdelta stops shrinking and whether the FE's ground-truth
// fetch time sits inside the inferred bounds Tdelta ≤ Tfetch ≤ Tdynamic.
// The study is deterministic per seed, so the output is exact.
func ExampleStudy() {
	study := fesplit.NewStudy(fesplit.LightStudyConfig(42))
	fig5, err := study.Fig5()
	if err != nil {
		panic(err)
	}
	for _, d := range fig5 {
		fmt.Printf("%s via %s: Tdelta threshold %.0f ms, bounds %.0f ≤ %.0f ≤ %.0f ms hold: %v\n",
			d.Service, d.FixedFE, d.ThresholdMS, d.BoundLoMS, d.TruthMS, d.BoundHiMS, d.BoundsOK)
	}
	// Output:
	// bing-like via bing-like-fe-metro-chicago: Tdelta threshold 242 ms, bounds 132 ≤ 214 ≤ 223 ms hold: true
	// google-like via google-like-fe-metro-chicago: Tdelta threshold 47 ms, bounds 27 ≤ 60 ≤ 62 ms hold: true
}
