package emulator

import (
	"testing"
	"time"

	"fesplit/internal/frontend"
)

// TestFetchJoinSurvivesPortReuse pins the FE-log join against ephemeral
// port reuse: when two sessions from the same client host used the same
// source port at different times, each query window must join the fetch
// record whose GET arrived inside it. (What a span tree draws from the
// joined entry is analysis.Fold's test.)
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
	log := []frontend.FetchRecord{early, late}
	if fr, _ := findFetch(log, "node-1", port, 900*time.Millisecond, 1500*time.Millisecond); fr != early {
		t.Fatalf("early window joined %+v, want its own log entry", fr)
	}
	if fr, _ := findFetch(log, "node-1", port, 60900*time.Millisecond, 61700*time.Millisecond); fr != late {
		t.Fatalf("late window joined %+v, want its own log entry", fr)
	}
	// A window covering neither session joins nothing rather than
	// guessing.
	if fr, ok := findFetch(log, "node-1", port, 30*time.Second, 31*time.Second); ok || fr != (frontend.FetchRecord{}) {
		t.Errorf("window outside both sessions still joined %+v", fr)
	}
}

func TestMatchFetch(t *testing.T) {
	log := []frontend.FetchRecord{
		{Client: "node-0", ClientPort: 4000, Arrived: 10 * time.Second},
		{Client: "node-0", ClientPort: 4000, Arrived: 20 * time.Second},
	}
	if fr, ok := findFetch(log, "node-0", 4000, 19*time.Second, 21*time.Second); !ok || fr.Arrived != 20*time.Second {
		t.Fatalf("findFetch picked %v ok=%v, want the 20s record", fr.Arrived, ok)
	}
	if _, ok := findFetch(log, "node-0", 4000, 12*time.Second, 13*time.Second); ok {
		t.Fatal("findFetch matched a window containing no arrival")
	}
	if _, ok := findFetch(nil, "node-0", 4000, 0, time.Hour); ok {
		t.Fatal("findFetch matched an empty log")
	}
}
