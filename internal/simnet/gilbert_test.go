package simnet

import (
	"math"
	"testing"
	"time"
)

func TestGilbertMeanLossRate(t *testing.T) {
	g := GilbertParams{PGoodToBad: 0.01, PBadToGood: 0.09, LossGood: 0, LossBad: 0.5}
	// π_bad = 0.01/0.10 = 0.1 → mean = 0.05.
	if got := g.MeanLossRate(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("mean = %v, want 0.05", got)
	}
	degenerate := GilbertParams{LossGood: 0.02}
	if degenerate.MeanLossRate() != 0.02 {
		t.Fatal("degenerate mean")
	}
}

func TestGilbertEmpiricalLossMatchesStationary(t *testing.T) {
	g := WirelessGilbert()
	s := New(5)
	n := NewNetwork(s)
	delivered := 0
	n.Attach("b", HandlerFunc(func(Packet) { delivered++ }))
	n.SetPath("a", "b", PathParams{Delay: time.Millisecond, Gilbert: &g})
	const total = 200000
	for i := 0; i < total; i++ {
		n.Send(Packet{From: "a", To: "b", Size: 10})
	}
	s.Run()
	got := float64(total-delivered) / total
	want := g.MeanLossRate()
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("empirical loss %v vs stationary %v", got, want)
	}
}

func TestGilbertLossesAreBursty(t *testing.T) {
	// Compare run-length statistics of Gilbert vs Bernoulli at the
	// same mean rate: Gilbert losses must cluster (longer loss runs).
	runLens := func(gilbert bool) float64 {
		s := New(9)
		n := NewNetwork(s)
		delivered := make(map[int]bool)
		idx := 0
		n.Attach("b", HandlerFunc(func(p Packet) { delivered[p.Payload.(int)] = true }))
		g := WirelessGilbert()
		pp := PathParams{Delay: time.Millisecond}
		if gilbert {
			pp.Gilbert = &g
		} else {
			pp.LossRate = g.MeanLossRate()
		}
		n.SetPath("a", "b", pp)
		const total = 100000
		for i := 0; i < total; i++ {
			n.Send(Packet{From: "a", To: "b", Size: 10, Payload: idx})
			idx++
		}
		s.Run()
		// Mean length of consecutive-loss runs.
		var runs, lost int
		inRun := false
		for i := 0; i < total; i++ {
			if !delivered[i] {
				lost++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(lost) / float64(runs)
	}
	bursty := runLens(true)
	indep := runLens(false)
	if bursty <= indep {
		t.Fatalf("Gilbert mean loss-run %v not longer than Bernoulli %v", bursty, indep)
	}
}

func TestGilbertDeterministic(t *testing.T) {
	run := func() float64 {
		g := WirelessGilbert()
		s := New(31)
		m := wireMetrics(s)
		n := NewNetwork(s)
		n.Attach("b", HandlerFunc(func(Packet) {}))
		n.SetPath("a", "b", PathParams{Delay: time.Millisecond, Gilbert: &g})
		for i := 0; i < 5000; i++ {
			n.Send(Packet{From: "a", To: "b", Size: 10})
		}
		s.Run()
		return m.PacketsDropped.Value()
	}
	if run() != run() {
		t.Fatal("Gilbert loss nondeterministic for equal seeds")
	}
}
