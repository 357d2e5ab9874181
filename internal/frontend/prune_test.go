package frontend

import (
	"testing"
	"time"
)

// TestPruneFetchLog exercises the prunable-log contract white-box: a
// prefix prune shifts the base, absolute indices keep resolving to the
// right surviving records, and late writes to pruned entries vanish.
func TestPruneFetchLog(t *testing.T) {
	fe := &Server{}
	for i := 0; i < 10; i++ {
		fe.fetchLog = append(fe.fetchLog, FetchRecord{
			Arrived:    time.Duration(i) * time.Second,
			ClientPort: uint16(1000 + i),
		})
	}

	if n := fe.PruneFetchLog(0); n != 0 {
		t.Fatalf("prune before first arrival dropped %d records", n)
	}
	if n := fe.PruneFetchLog(4 * time.Second); n != 4 {
		t.Fatalf("prune dropped %d records, want 4", n)
	}
	if fe.FetchLogBase() != 4 || len(fe.FetchLog()) != 6 {
		t.Fatalf("base=%d len=%d after prune, want 4/6", fe.FetchLogBase(), len(fe.FetchLog()))
	}
	if got := fe.FetchLog()[0].ClientPort; got != 1004 {
		t.Fatalf("surviving head is port %d, want 1004", got)
	}

	// Absolute index 7 still resolves to its own record.
	if r := fe.logAt(7); r == nil || r.ClientPort != 1007 {
		t.Fatalf("logAt(7) = %+v, want port 1007", r)
	}
	// Pruned index 2 resolves to nil — the late-completion write is
	// dropped, not misdirected.
	if r := fe.logAt(2); r != nil {
		t.Fatalf("logAt(2) resolved pruned record %+v", r)
	}

	// New appends continue the absolute numbering past the pruned gap.
	idx := fe.fetchBase + len(fe.fetchLog)
	fe.fetchLog = append(fe.fetchLog, FetchRecord{Arrived: 10 * time.Second, ClientPort: 1010})
	if idx != 10 {
		t.Fatalf("next absolute index %d, want 10", idx)
	}
	if r := fe.logAt(idx); r == nil || r.ClientPort != 1010 {
		t.Fatalf("logAt(%d) = %+v, want port 1010", idx, r)
	}

	// Pruning everything empties the log but keeps indices monotone.
	if n := fe.PruneFetchLog(time.Hour); n != 7 {
		t.Fatalf("final prune dropped %d, want 7", n)
	}
	if fe.FetchLogBase() != 11 || len(fe.FetchLog()) != 0 {
		t.Fatalf("base=%d len=%d after full prune, want 11/0", fe.FetchLogBase(), len(fe.FetchLog()))
	}
}
