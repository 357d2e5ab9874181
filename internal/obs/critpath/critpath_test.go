package critpath

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"fesplit/internal/obs"
)

// randTimeline builds a plausible (monotone) session timeline with
// jittered gaps, then — for a third of the cases — deliberately
// scrambles one cut point to exercise the clamping paths.
func randTimeline(rng *rand.Rand) (Timeline, time.Duration, time.Duration) {
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond
	}
	dns := time.Duration(0)
	if rng.Intn(2) == 0 {
		dns = ms(1, 40)
	}
	tb := dns + ms(0, 5)
	rtt := ms(2, 120)
	t1 := tb + rtt + ms(0, 2)
	t2 := t1 + rtt/2 + ms(0, 10)
	t3 := t2 + ms(0, 20)
	t4 := t3 + ms(0, 30)
	t5 := t4 + ms(1, 200)
	te := t5 + ms(0, 50)
	end := te + ms(0, 5)
	tl := Timeline{TB: tb, T1: t1, T2: t2, T3: t3, T4: t4, T5: t5, TE: te, RTT: rtt}
	if rng.Intn(3) == 0 { // degenerate: one cut point out of order
		switch rng.Intn(4) {
		case 0:
			tl.T3 = tl.T5 + ms(1, 10)
		case 1:
			tl.T1 = 0
		case 2:
			tl.T4 = tl.T2 - ms(0, 5)
		case 3:
			tl.TB = end + ms(1, 10)
		}
	}
	return tl, dns, end
}

// buildQuery mimics the fold's query for a timeline: the DNS end when
// resolution cost time, and for most records the FE's arrival with, at
// random, a BE RTT and a queue wait.
func buildQuery(rng *rand.Rand, tl Timeline, dns, end time.Duration) Query {
	q := Query{Start: 0, End: end, FEArrival: -1}
	if dns > 0 {
		q.DNSEnd = dns
	}
	if rng.Intn(4) != 0 { // most records have a matched FE-side fetch
		q.FEArrival = max(tl.T2-tl.RTT/2, tl.T1)
		if rng.Intn(3) != 0 {
			q.BERTT = time.Duration(rng.Intn(40)+1) * time.Millisecond
		}
		if rng.Intn(3) == 0 {
			q.BEQueue = time.Duration(rng.Intn(150)+1) * time.Millisecond
		}
	}
	return q
}

// TestAttributeConservation is the core property test: for random
// (including degenerate) timelines, phases partition the query
// exactly, segments are contiguous, and the fetch estimate respects
// the paper's [Tdelta, Tdynamic] inference bounds.
func TestAttributeConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		tl, dns, end := randTimeline(rng)
		q := buildQuery(rng, tl, dns, end)
		a := Attribute(q, tl)

		if !a.Conserved() {
			t.Fatalf("case %d: phases sum %v != total %v (tl=%+v)", i, a.Sum(), a.Total, tl)
		}
		if a.Total != q.End-q.Start {
			t.Fatalf("case %d: total %v != query dur %v", i, a.Total, q.End-q.Start)
		}
		cur := q.Start
		for j, seg := range a.Segments() {
			if seg.Start != cur {
				t.Fatalf("case %d: segment %d starts at %v, want %v (gap)", i, j, seg.Start, cur)
			}
			if seg.End <= seg.Start {
				t.Fatalf("case %d: segment %d empty or negative: %+v", i, j, seg)
			}
			cur = seg.End
		}
		if len(a.Segments()) > 0 && cur != q.End {
			t.Fatalf("case %d: segments end at %v, want %v", i, cur, q.End)
		}
		for ph, d := range a.Phases {
			if d < 0 {
				t.Fatalf("case %d: negative phase %s: %v", i, Phase(ph), d)
			}
		}
		if a.FetchEstimate < 0 {
			t.Fatalf("case %d: negative fetch estimate %v", i, a.FetchEstimate)
		}
		if a.Tdelta >= 0 && a.Tdynamic >= a.Tdelta {
			// Well-formed window → the paper's inference bounds hold.
			if a.FetchEstimate < a.Tdelta || a.FetchEstimate > a.Tdynamic {
				t.Fatalf("case %d: fetch estimate %v outside [%v, %v]",
					i, a.FetchEstimate, a.Tdelta, a.Tdynamic)
			}
		}
		// The fetch window split never exceeds the query's BE RTT.
		if a.BERTT > 0 && a.Phases[PhaseBERTT] > a.BERTT {
			t.Fatalf("case %d: be-rtt phase %v > BE RTT %v", i, a.Phases[PhaseBERTT], a.BERTT)
		}
		// Likewise the queue share never exceeds the query's wait, and
		// it exists only with one.
		if a.Phases[PhaseBEQueue] > a.BEQueue {
			t.Fatalf("case %d: be-queue phase %v > queue wait %v",
				i, a.Phases[PhaseBEQueue], a.BEQueue)
		}
	}
}

// TestBEQueueSplit pins the fetch-window split with a queue wait: [T4, T5] telescopes into be-rtt, then be-queue, then
// be-proc, each clamped to the window.
func TestBEQueueSplit(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tl := Timeline{
		TB: ms(10), T1: ms(50), T2: ms(70), T3: ms(75),
		T4: ms(90), T5: ms(290), TE: ms(300), RTT: ms(40),
	}
	build := func(beRTT, wait time.Duration) Query {
		return Query{Start: 0, End: ms(305), FEArrival: ms(50), BERTT: beRTT, BEQueue: wait}
	}

	// Fetch window is [90, 290] = 200 ms: 30 ms RTT + 120 ms queue
	// leaves 50 ms of BE processing.
	a := Attribute(build(ms(30), ms(120)), tl)
	if !a.Conserved() {
		t.Fatalf("not conserved: %+v", a)
	}
	if a.BEQueue != ms(120) {
		t.Fatalf("BEQueue = %v, want 120ms", a.BEQueue)
	}
	if a.Phases[PhaseBERTT] != ms(30) || a.Phases[PhaseBEQueue] != ms(120) ||
		a.Phases[PhaseBEProc] != ms(50) {
		t.Fatalf("split = rtt %v / queue %v / proc %v, want 30/120/50 ms",
			a.Phases[PhaseBERTT], a.Phases[PhaseBEQueue], a.Phases[PhaseBEProc])
	}

	// Without a queue wait the queue share is empty and the window
	// is rtt + proc, exactly as before the queue model existed.
	a = Attribute(build(ms(30), 0), tl)
	if a.Phases[PhaseBEQueue] != 0 {
		t.Fatalf("be-queue = %v without a queue wait", a.Phases[PhaseBEQueue])
	}
	if a.Phases[PhaseBERTT] != ms(30) || a.Phases[PhaseBEProc] != ms(170) {
		t.Fatalf("split = rtt %v / proc %v, want 30/170 ms",
			a.Phases[PhaseBERTT], a.Phases[PhaseBEProc])
	}

	// An oversized wait is clamped to the window: queue absorbs what
	// remains after the RTT, proc gets nothing.
	a = Attribute(build(ms(30), ms(500)), tl)
	if !a.Conserved() {
		t.Fatalf("not conserved with clamped wait: %+v", a)
	}
	if a.Phases[PhaseBEQueue] != ms(170) || a.Phases[PhaseBEProc] != 0 {
		t.Fatalf("clamped split = queue %v / proc %v, want 170/0 ms",
			a.Phases[PhaseBEQueue], a.Phases[PhaseBEProc])
	}
}

func TestAttributeWellFormedTimeline(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tl := Timeline{
		TB: ms(10), T1: ms(50), T2: ms(70), T3: ms(75),
		T4: ms(90), T5: ms(170), TE: ms(180), RTT: ms(40),
	}
	q := Query{Start: 0, End: ms(185), DNSEnd: ms(10), FEArrival: ms(70), BERTT: ms(30)}

	a := Attribute(q, tl)
	want := map[Phase]time.Duration{
		PhaseDNS:             ms(10),
		PhaseHandshake:       ms(40),
		PhaseRequest:         ms(20), // T1 → FE arrival (70)
		PhaseFEStatic:        ms(5),  // FE arrival → T3
		PhaseStaticDelivery:  ms(15),
		PhaseBERTT:           ms(30),
		PhaseBEProc:          ms(50),
		PhaseDynamicDelivery: ms(10),
		PhaseResidual:        ms(5), // TE → query end
	}
	for ph, w := range want {
		if a.Phases[ph] != w {
			t.Errorf("phase %s = %v, want %v", ph, a.Phases[ph], w)
		}
	}
	if !a.Conserved() {
		t.Fatalf("sum %v != total %v", a.Sum(), a.Total)
	}
	// Estimate: T5 − feArr − RTT/2 = 170 − 70 − 20 = 80ms; bounds
	// [Tdelta, Tdynamic] = [80, 100] — inside, no clamping.
	if a.FetchEstimate != ms(80) {
		t.Fatalf("fetch estimate = %v, want 80ms", a.FetchEstimate)
	}
}

// TestAnnotateTilesQuery: the cp:* children Annotate hangs on a root
// are the attribution's segments, on the critpath track, tiling the
// root exactly, and the root carries the fetch estimate.
func TestAnnotateTilesQuery(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tl := Timeline{TB: 0, T1: ms(10), T2: ms(15), T3: ms(16), T4: ms(20), T5: ms(60), TE: ms(65), RTT: ms(10)}
	root := &obs.Span{Name: "query", Start: 0, End: ms(65)}
	a := Attribute(Query{Start: root.Start, End: root.End, FEArrival: -1}, tl)
	Annotate(root, a)
	if n := len(root.Children); n == 0 || n != len(a.Segments()) {
		t.Fatalf("annotated %d children, want %d segments", n, len(a.Segments()))
	}
	cur := root.Start
	for i, c := range root.Children {
		seg := a.Segments()[i]
		if c.Track != AnnotationTrack || c.Name != "cp:"+seg.Phase.String() {
			t.Fatalf("cp child %q on track %q, want %q on %q", c.Name, c.Track, "cp:"+seg.Phase.String(), AnnotationTrack)
		}
		if c.Start != cur || c.End != seg.End {
			t.Fatalf("cp child %q covers [%v, %v], want [%v, %v]", c.Name, c.Start, c.End, cur, seg.End)
		}
		cur = c.End
	}
	if cur != root.End {
		t.Fatalf("cp children end at %v, want %v", cur, root.End)
	}
	want := obs.Attr{K: attrFetchEst, V: strconv.FormatInt(int64(a.FetchEstimate), 10)}
	if len(root.Attrs) != 1 || root.Attrs[0] != want {
		t.Fatalf("root attrs %v, want [%v]", root.Attrs, want)
	}
}
