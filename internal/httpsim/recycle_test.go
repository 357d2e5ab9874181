package httpsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
)

// staleWriterRun serves two connections from recycling endpoints. The
// first client sends its request and closes at once; the handler keeps
// the writer without answering, and both ends close. The second
// connection reuses the first one's object on both sides, and when
// late is set its handler first writes through the kept writer. It
// returns the server's tap transcript and the second response's body.
func staleWriterRun(t *testing.T, late bool) (string, string) {
	t.Helper()
	sim := simnet.New(3)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 5 * time.Millisecond})
	client := tcpsim.NewEndpoint(n, "c", tcpsim.Config{RecycleConns: true})
	server := tcpsim.NewEndpoint(n, "s", tcpsim.Config{RecycleConns: true})
	var tr strings.Builder
	server.Tap = func(ev tcpsim.TapEvent, data []byte, _ []tcpsim.SACKBlock) {
		fmt.Fprintf(&tr, "%v %v %v %q\n", ev.Time, ev.Dir, ev.Segment, data)
	}
	var kept *ResponseWriter
	var keptConn *tcpsim.Conn
	if _, err := NewServer(server, 80, func(w *ResponseWriter, r *Request) {
		if kept == nil {
			kept, keptConn = w, w.Conn()
			return
		}
		if w.Conn() != keptConn {
			t.Fatal("the second connection did not reuse the first one's object")
		}
		if late {
			kept.Write([]byte("stale bytes"))
			kept.End()
		}
		w.WriteHeader(200, nil)
		w.Write([]byte("second"))
		w.End()
	}); err != nil {
		t.Fatal(err)
	}

	first := client.Dial("s", 80)
	first.OnConnect = func() {
		first.Send(NewGet("h", "/1").Marshal())
		first.Close()
	}
	sim.Run()
	if kept == nil || server.FreeConns() != 1 {
		t.Fatalf("first connection: writer kept %v, %d server objects free, want 1", kept != nil, server.FreeConns())
	}

	var body string
	Get(client, "s", 80, NewGet("h", "/2"), ResponseCallbacks{
		OnDone: func(r *Response) { body = string(r.Body) },
	})
	sim.Run()
	return tr.String(), body
}

// TestStaleWriterWritesNothing: a handler that keeps its ResponseWriter
// past its connection's end must not write into the connection that
// reuses the object. The run with the late write must equal the run
// without it, packet for packet. Mutation: let the writer skip its
// incarnation check, and the stale bytes open the second response.
func TestStaleWriterWritesNothing(t *testing.T) {
	want, wantBody := staleWriterRun(t, false)
	got, body := staleWriterRun(t, true)
	if wantBody != "second" {
		t.Fatalf("second response body %q without the late write", wantBody)
	}
	if got != want || body != wantBody {
		t.Fatalf("a stale writer reached the reused connection (body %q):\n%s\nwant\n%s", body, got, want)
	}
}
