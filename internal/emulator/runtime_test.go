package emulator_test

import (
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/simnet"
	"fesplit/internal/vantage"
)

// TestUnobservedWorldPublishesLaneTotals runs a campaign in a world
// wired to a telemetry hub and to no observer. The hub's fast-lane
// slice must then equal what the lane carried since wiring — the
// segments sent after the last connection opened included.
func TestUnobservedWorldPublishesLaneTotals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		access vantage.AccessProfile
	}{{"campus", vantage.CampusProfile()}, {"wireless", vantage.WirelessProfile()}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := rt.NewEngine()
			r, err := emulator.New(71, cdn.GoogleLike(1),
				emulator.Options{Nodes: 20, FleetSeed: 72, Access: tc.access, SnapPayloads: true, Runtime: eng})
			if err != nil {
				t.Fatal(err)
			}
			// Nothing runs between wiring and New's return: the lane
			// holds only the FE prewarm dials here.
			before := r.Sim.FastLane().Carried()
			r.RunExperimentA(emulator.AOptions{QueriesPerNode: 3, Interval: 2 * time.Second, QuerySeed: 1})
			c := r.Sim.FastLane().Carried()
			want := simnet.LaneCounts{Epochs: c.Epochs - before.Epochs,
				Segments: c.Segments - before.Segments, Bytes: c.Bytes - before.Bytes}
			fp := eng.Snapshot().Fastpath
			if got := (simnet.LaneCounts{Epochs: fp.Epochs, Segments: fp.Segments, Bytes: fp.Bytes}); got != want || want.Segments == 0 {
				t.Fatalf("hub fastpath = %+v, want the lane's %+v since wiring", got, want)
			}
		})
	}
}
