package core

import (
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/capture"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/trace"
	"fesplit/internal/workload"
)

func TestPredictBasicsSmallRTT(t *testing.T) {
	p, err := Predict(Inputs{
		RTT:          10 * time.Millisecond,
		FEDelay:      10 * time.Millisecond,
		Fetch:        150 * time.Millisecond,
		StaticBytes:  8211,
		DynamicBytes: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.T2 != 20*time.Millisecond {
		t.Fatalf("T2 = %v", p.T2)
	}
	// Static flushed at 15+10=25ms FE-time, first packet at +5ms.
	if p.T3 != 30*time.Millisecond {
		t.Fatalf("T3 = %v", p.T3)
	}
	// Small RTT: the static finishes long before the fetch; distinct
	// clusters.
	if p.Coalesced {
		t.Fatal("coalesced at small RTT")
	}
	if p.Tdelta() <= 0 {
		t.Fatalf("Tdelta = %v", p.Tdelta())
	}
	// Tdynamic ≈ Fetch at small RTT (the flat regime of Figure 5b).
	if p.Tdynamic() < 140*time.Millisecond || p.Tdynamic() > 170*time.Millisecond {
		t.Fatalf("Tdynamic = %v, want ≈ fetch 150ms", p.Tdynamic())
	}
	if p.TE <= p.T5 || p.T5 <= p.T4 || p.T4 <= p.T3 {
		t.Fatalf("timeline out of order: %+v", p)
	}
}

func TestPredictCoalescesAtLargeRTT(t *testing.T) {
	p, err := Predict(Inputs{
		RTT:          250 * time.Millisecond,
		FEDelay:      10 * time.Millisecond,
		Fetch:        150 * time.Millisecond,
		StaticBytes:  8211,
		DynamicBytes: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Coalesced {
		t.Fatal("no coalescing at large RTT")
	}
	if p.Tdelta() != 0 {
		t.Fatalf("coalesced Tdelta = %v", p.Tdelta())
	}
	// Large-RTT regime: Tdynamic grows with RTT, beyond the fetch.
	if p.Tdynamic() <= 150*time.Millisecond {
		t.Fatalf("Tdynamic = %v, want RTT-bound > fetch", p.Tdynamic())
	}
}

func TestPredictDeltaMonotoneInRTT(t *testing.T) {
	prev := time.Duration(1 << 62)
	for rtt := 5 * time.Millisecond; rtt <= 300*time.Millisecond; rtt += 5 * time.Millisecond {
		p, err := Predict(Inputs{
			RTT: rtt, FEDelay: 10 * time.Millisecond, Fetch: 150 * time.Millisecond,
			StaticBytes: 8211, DynamicBytes: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.Tdelta() > prev {
			t.Fatalf("Tdelta increased at RTT=%v: %v > %v", rtt, p.Tdelta(), prev)
		}
		prev = p.Tdelta()
	}
	if prev != 0 {
		t.Fatalf("Tdelta never reached 0: %v", prev)
	}
}

func TestPredictThresholdMatchesAnalytic(t *testing.T) {
	fetch := 150 * time.Millisecond
	fe := 10 * time.Millisecond
	analytic := DeltaThresholdRTT(fetch, fe)
	// Find the empirical threshold from the predictor.
	var empirical time.Duration
	for rtt := 5 * time.Millisecond; rtt <= 400*time.Millisecond; rtt += time.Millisecond {
		p, err := Predict(Inputs{RTT: rtt, FEDelay: fe, Fetch: fetch,
			StaticBytes: 8211, DynamicBytes: 20000})
		if err != nil {
			t.Fatal(err)
		}
		if p.Tdelta() == 0 {
			empirical = rtt
			break
		}
	}
	if empirical == 0 {
		t.Fatal("no empirical threshold")
	}
	diff := empirical - analytic
	if diff < 0 {
		diff = -diff
	}
	if diff > 40*time.Millisecond {
		t.Fatalf("threshold mismatch: empirical %v vs analytic %v", empirical, analytic)
	}
}

func TestPredictValidation(t *testing.T) {
	if _, err := Predict(Inputs{RTT: time.Millisecond}); err == nil {
		t.Fatal("zero content sizes accepted")
	}
}

func TestSolveProc(t *testing.T) {
	if got := SolveProc(100*time.Millisecond, 1.5, 20*time.Millisecond); got != 70*time.Millisecond {
		t.Fatalf("SolveProc = %v", got)
	}
	if got := SolveProc(10*time.Millisecond, 2, 50*time.Millisecond); got != 0 {
		t.Fatalf("negative proc not clamped: %v", got)
	}
}

func TestFetchBounds(t *testing.T) {
	lo, hi := FetchBounds(5*time.Millisecond, 50*time.Millisecond)
	if lo != 5*time.Millisecond || hi != 50*time.Millisecond {
		t.Fatal("bounds mismatch")
	}
}

// TestModelAgreesWithSimulator is the validation step: a fully
// deterministic client–FE–BE world is both simulated at packet level
// and predicted analytically; the timelines must agree.
func TestModelAgreesWithSimulator(t *testing.T) {
	for _, rtt := range []time.Duration{
		10 * time.Millisecond, 40 * time.Millisecond, 120 * time.Millisecond, 240 * time.Millisecond,
	} {
		rtt := rtt
		sim := simnet.New(77)
		n := simnet.NewNetwork(sim)
		spec := workload.DefaultContentSpec("model")
		const proc = 80 * time.Millisecond
		const feDelay = 10 * time.Millisecond
		feBE := 15 * time.Millisecond // one-way
		if _, err := backend.New(n, "be", geo.Site{}, spec,
			workload.CostModel{Base: proc}, backend.Options{}, 1); err != nil {
			t.Fatal(err)
		}
		fe, err := frontend.New(n, frontend.Config{
			Host: "fe", BEHost: "be", Static: spec.StaticPrefix(),
			Load: frontend.LoadModel{Mean: feDelay}, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.SetLink("client", "fe", simnet.PathParams{Delay: rtt / 2})
		n.SetLink("fe", "be", simnet.PathParams{Delay: feBE})
		fe.Prewarm(1)
		sim.RunFor(2 * time.Second) // settle the prewarm handshake

		ep := tcpsim.NewEndpoint(n, "client", tcpsim.Config{})
		rec := capture.NewRecorder("client")
		ep.Tap = rec.Tap
		q := workload.Query{ID: 1, Keywords: "alpha beta gamma", Terms: 3, Rank: 999}
		start := sim.Now()
		httpsim.Get(ep, "fe", frontend.FEPort, httpsim.NewGet("model", q.Path()),
			httpsim.ResponseCallbacks{})
		sim.Run()

		keys, sessions := rec.Trace().Sessions()
		if len(keys) != 1 {
			t.Fatalf("sessions = %d", len(keys))
		}
		s, err := trace.Parse(keys[0], sessions[keys[0]])
		if err != nil {
			t.Fatal(err)
		}
		staticLen := len(spec.StaticPrefix()) + len("HTTP/1.1 200 OK\r\n\r\n")
		if err := s.Locate(staticLen); err != nil {
			t.Fatal(err)
		}

		fetch := fe.FetchTimes()
		if len(fetch) != 1 {
			t.Fatalf("fetch samples = %d", len(fetch))
		}
		pred, err := Predict(Inputs{
			RTT:          rtt,
			FEDelay:      feDelay,
			Fetch:        fetch[0],
			StaticBytes:  staticLen,
			DynamicBytes: len(s.Payload()) - staticLen,
		})
		if err != nil {
			t.Fatal(err)
		}

		within := func(name string, got, want, tol time.Duration) {
			t.Helper()
			d := got - want
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("rtt=%v %s: sim %v vs model %v (tol %v)", rtt, name, got, want, tol)
			}
		}
		// Session times are relative to `start`.
		within("t2", s.T2-start, pred.T2, time.Millisecond)
		within("t3", s.T3-start, pred.T3, 2*time.Millisecond)
		within("t4", s.T4-start, pred.T4, 10*time.Millisecond)
		within("t5", s.T5-start, pred.T5, 10*time.Millisecond)
		// te tolerance is one window round: the analytic model charges
		// partial segments a full window slot, while the simulator's
		// congestion window is byte-granular, which can shift the last
		// round by up to one RTT.
		within("te", s.TE-start, pred.TE, rtt+20*time.Millisecond)
		within("Tdelta", s.Tdelta(), pred.Tdelta(), 10*time.Millisecond)
	}
}
