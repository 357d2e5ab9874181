package httpsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
)

// keepAliveScenario drives a persistent (keep-alive) client connection
// through a pipeline of requests while the server enforces an idle
// expiry: at a fuzz-chosen instant it closes the connection, which can
// land between responses, mid-response, or mid-fast-epoch (the
// connection teardown bumps the endpoint's demux generation, so the
// fast lane's cached resolution goes stale). It returns the transcript —
// per-request completion or truncation, each with its sim-time stamp —
// and fails t unless each request ends exactly once (done with its full
// body, or errored), the simulation drains, and once the client closes
// its connection neither endpoint holds an open one.
func keepAliveScenario(t *testing.T, seed int64, nReq, respKB int, expiry, spacing time.Duration) string {
	sim := simnet.New(seed)
	n := simnet.NewNetwork(sim)
	n.SetLink("fe", "be", simnet.PathParams{Delay: 8 * time.Millisecond, Bandwidth: 5e6})
	fe := tcpsim.NewEndpoint(n, "fe", tcpsim.Config{})
	be := tcpsim.NewEndpoint(n, "be", tcpsim.Config{})

	body := make([]byte, respKB<<10)
	for i := range body {
		body[i] = byte(i)
	}
	var srvConn *tcpsim.Conn
	if _, err := NewServer(be, 80, func(w *ResponseWriter, r *Request) {
		srvConn = w.Conn()
		w.WriteHeader(200, ContentLengthHeader(len(body)))
		w.Write(body)
		w.End()
	}); err != nil {
		t.Fatal(err)
	}
	// Keep-alive expiry: the server drops the connection at the deadline
	// regardless of what is in flight, like a real idle timer that was
	// armed before the last burst arrived.
	sim.Schedule(expiry, func() {
		if srvConn != nil {
			srvConn.Close()
		}
	})

	var log []string
	ended := make([]int, nReq)
	pc := NewPersistentConn(fe, "be", 80)
	for i := 0; i < nReq; i++ {
		req := NewGet("be", fmt.Sprintf("/q/%d", i))
		issue := func() {
			pc.Do(req, ResponseCallbacks{
				OnDone: func(r *Response) {
					if ended[i]++; len(r.Body) != len(body) {
						t.Errorf("request %d done with %d of %d body bytes", i, len(r.Body), len(body))
					}
					log = append(log, fmt.Sprintf("%d done %d bytes at %v", i, len(r.Body), sim.Now()))
				},
				OnError: func(err error) {
					ended[i]++
					log = append(log, fmt.Sprintf("%d error %v at %v", i, err, sim.Now()))
				},
			})
		}
		if i == 0 {
			issue()
		} else {
			sim.Schedule(time.Duration(i)*spacing, issue)
		}
	}
	sim.Run()
	transcript := fmt.Sprintf("%v final=%v", log, sim.Now())
	for i, n := range ended {
		if n != 1 {
			t.Errorf("request %d ended %d times", i, n)
		}
	}
	pc.Close()
	sim.Run()
	if sim.Pending() != 0 || fe.OpenConns() != 0 || be.OpenConns() != 0 {
		t.Errorf("after close: %d events pending, open connections fe %d, be %d", sim.Pending(), fe.OpenConns(), be.OpenConns())
	}
	return transcript
}

// keepAliveSeeds pin the interesting alignments, each with the sha256
// of the transcript the packet path produced for it before that path
// was deleted.
var keepAliveSeeds = []struct {
	seed     int64
	nReq     uint8
	respKB   uint8
	expiryMs uint16
	spacing  uint8
	digest   string
}{
	{1, 4, 16, 40, 10, "310c23a3675ee8a538e6c5d533743d28c76e367b835e7fb00c4e5588f562ff96"}, // mid-epoch: cuts response 2's segment stream
	{2, 3, 4, 25, 20, "a2f86d7f94856b7cfb9f3e60a581adaf60c60be186a84194c44c74e0e6d592dd"},  // between responses
	{3, 2, 64, 5, 5, "44e9b5aaecbced3df0ce05ed49781c4103d6e8214e3573c973cad5fcf665c458"},   // before first response header
	{4, 6, 1, 500, 1, "1ceb1f1050bc00393711ef9c066226a227e36999546b48ac12837cd6acfca192"},  // expiry after pipeline drains
	{5, 5, 32, 60, 0, "65056342577040978d4f15c263e496105d74230e46ac328818b52d0018342f69"},  // burst pipeline, expiry mid-stream
}

// FuzzKeepAliveExpiry varies the expiry instant, pipeline depth,
// response size and spacing; keepAliveScenario checks the end state,
// and a seed input must also reproduce its transcript.
func FuzzKeepAliveExpiry(f *testing.F) {
	for _, s := range keepAliveSeeds {
		f.Add(s.seed, s.nReq, s.respKB, s.expiryMs, s.spacing)
	}
	f.Fuzz(func(t *testing.T, seed int64, nReq, respKB uint8, expiryMs uint16, spacingMs uint8) {
		reqs := 1 + int(nReq)%8
		kb := int(respKB) % 65 // up to 64KB responses
		expiry := time.Duration(1+int(expiryMs)%600) * time.Millisecond
		spacing := time.Duration(int(spacingMs)%40) * time.Millisecond
		log := keepAliveScenario(t, seed, reqs, kb, expiry, spacing)
		sum := sha256.Sum256([]byte(log))
		for _, s := range keepAliveSeeds {
			if s.seed == seed && s.nReq == nReq && s.respKB == respKB && s.expiryMs == expiryMs && s.spacing == spacingMs &&
				hex.EncodeToString(sum[:]) != s.digest {
				t.Fatalf("transcript digest %x, the packet path's %s: %s", sum, s.digest, log)
			}
		}
	})
}
