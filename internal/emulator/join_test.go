package emulator

import (
	"testing"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/frontend"
	"fesplit/internal/simnet"
)

// TestFetchJoinSurvivesPortReuse pins the FE-log join against ephemeral
// port reuse: when two sessions from the same client host used the same
// source port at different times, each record must join the fetch
// record whose GET arrived inside its own [IssuedAt, DoneAt] window —
// not whichever record a last-write-wins map happened to keep. (What a
// span tree draws from the joined entry is analysis.Fold's test.)
func TestFetchJoinSurvivesPortReuse(t *testing.T) {
	const port = 4242
	early := frontend.FetchRecord{
		Client: "node-1", ClientPort: port,
		Arrived:   1 * time.Second,
		StaticAt:  1100 * time.Millisecond,
		FetchDone: 1200 * time.Millisecond,
	}
	late := frontend.FetchRecord{
		Client: "node-1", ClientPort: port,
		Arrived:   61 * time.Second,
		StaticAt:  61100 * time.Millisecond,
		FetchDone: 61400 * time.Millisecond,
	}
	feLog := map[feLogKey][]frontend.FetchRecord{
		{client: "node-1", port: port}: {early, late},
	}
	key := capture.ConnKey{Remote: "svc-fe-x", LocalPort: port, RemotePort: frontend.FEPort}
	w := &world{links: map[simnet.HostID]beLink{"svc-fe-x": {be: "svc-be", rtt: 30 * time.Millisecond}}}
	join := func(rr *Record) {
		fr, _ := matchFetch(feLog[feLogKey{string(rr.Node), rr.Key.LocalPort}], rr.IssuedAt, rr.DoneAt)
		w.join(rr, fr)
	}

	recEarly := &Record{
		Node: "node-1", FE: "svc-fe-x", Key: key,
		IssuedAt: 900 * time.Millisecond, DoneAt: 1500 * time.Millisecond,
	}
	if join(recEarly); recEarly.Fetch != early {
		t.Fatalf("early record joined %+v, want its own log entry", recEarly.Fetch)
	}
	if recEarly.BE != "svc-be" || recEarly.BERTT != 30*time.Millisecond {
		t.Errorf("early record carries BE link %q/%v, want the FE's", recEarly.BE, recEarly.BERTT)
	}
	if want := 200 * time.Millisecond; recEarly.TrueFetch != want {
		t.Errorf("early record TrueFetch = %v, want %v (joined the wrong session)",
			recEarly.TrueFetch, want)
	}

	recLate := &Record{
		Node: "node-1", FE: "svc-fe-x", Key: key,
		IssuedAt: 60900 * time.Millisecond, DoneAt: 61700 * time.Millisecond,
	}
	if join(recLate); recLate.Fetch != late {
		t.Fatalf("late record joined %+v, want its own log entry", recLate.Fetch)
	}
	if want := 400 * time.Millisecond; recLate.TrueFetch != want {
		t.Errorf("late record TrueFetch = %v, want %v (joined the wrong session)",
			recLate.TrueFetch, want)
	}

	// A window covering neither session joins nothing rather than
	// guessing.
	recMiss := &Record{
		Node: "node-1", FE: "svc-fe-x", Key: key,
		IssuedAt: 30 * time.Second, DoneAt: 31 * time.Second,
	}
	if join(recMiss); recMiss.Fetch != (frontend.FetchRecord{}) {
		t.Errorf("record outside both sessions still joined %+v", recMiss.Fetch)
	}
	if recMiss.TrueFetch != 0 {
		t.Errorf("unjoined record TrueFetch = %v, want 0", recMiss.TrueFetch)
	}
}

func TestMatchFetch(t *testing.T) {
	cands := []frontend.FetchRecord{
		{Arrived: 10 * time.Second},
		{Arrived: 20 * time.Second},
	}
	if fr, ok := matchFetch(cands, 19*time.Second, 21*time.Second); !ok || fr.Arrived != 20*time.Second {
		t.Fatalf("matchFetch picked %v ok=%v, want the 20s record", fr.Arrived, ok)
	}
	if _, ok := matchFetch(cands, 12*time.Second, 13*time.Second); ok {
		t.Fatal("matchFetch matched a window containing no arrival")
	}
	if _, ok := matchFetch(nil, 0, time.Hour); ok {
		t.Fatal("matchFetch matched empty candidates")
	}
}
