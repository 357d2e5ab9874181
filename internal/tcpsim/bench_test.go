package tcpsim

import (
	"fmt"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// transferScenario is one server→client transfer in a fresh world: the
// shared body of the transfer benchmarks below and of
// TestTransferAllocPins, so the pins count exactly what the benchmarks
// time.
type transferScenario struct {
	size int               // payload bytes
	cfg  Config            // both endpoints
	path simnet.PathParams // both directions
	// lossyAfter, when > 0, turns the server→client direction 2 % lossy
	// at that instant: the transfer starts clean and must re-resolve its
	// path handle and recover losses mid-stream.
	lossyAfter time.Duration
}

var (
	clean20ms = simnet.PathParams{Delay: 10 * time.Millisecond}
	// bulkTransfer: 1 MB over a clean 20 ms-RTT path, end to end — the
	// fast-forward engine in isolation.
	bulkTransfer = transferScenario{size: 1 << 20, path: clean20ms}
	// fastPathTurnsLossy: the path turns lossy mid-transfer — handle
	// re-resolution plus loss recovery for the remainder, all on the
	// lane.
	fastPathTurnsLossy = transferScenario{size: 256 << 10, cfg: Config{SACK: true}, path: clean20ms,
		lossyAfter: 40 * time.Millisecond}
)

// lossyTransfer is 256 KB with SACK over a path with the given loss
// parameters — the lossy lane scenarios.
func lossyTransfer(path simnet.PathParams) transferScenario {
	return transferScenario{size: 256 << 10, cfg: Config{SACK: true}, path: path}
}

// gilbertLossy is the lossy fast lane under the paper's bursty loss
// model: a Gilbert–Elliott process averaging ≈1 % loss in bursts.
func gilbertLossy() transferScenario {
	g := simnet.WirelessGilbert()
	return lossyTransfer(simnet.PathParams{Delay: 10 * time.Millisecond, Gilbert: &g})
}

// run builds the world from seed, sends payload (sc.size bytes, made
// once by the caller so it is not part of the measured cost) and fails
// tb unless every byte arrives.
func (sc transferScenario) run(tb testing.TB, seed int64, payload []byte) {
	sim := simnet.New(seed)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", sc.path)
	client := NewEndpoint(n, "c", sc.cfg)
	server := NewEndpoint(n, "s", sc.cfg)
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		tb.Fatal(err)
	}
	if sc.lossyAfter > 0 {
		lossy := simnet.PathParams{Delay: sc.path.Delay, LossRate: 0.02}
		sim.Schedule(sc.lossyAfter, func() { n.SetPath("s", "c", lossy) })
	}
	got := 0
	conn := client.Dial("s", 80)
	conn.OnData = func(d []byte) { got += len(d) }
	conn.OnClose = func() { conn.Close() }
	sim.Run()
	if got != len(payload) {
		tb.Fatalf("incomplete: %d", got)
	}
}

// bench runs the scenario b.N times, world i seeded i.
func (sc transferScenario) bench(b *testing.B) {
	payload := make([]byte, sc.size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.run(b, int64(i), payload)
	}
}

// BenchmarkBulkTransfer measures simulated TCP throughput (MB/s).
func BenchmarkBulkTransfer(b *testing.B) {
	b.SetBytes(int64(bulkTransfer.size))
	bulkTransfer.bench(b)
}

// BenchmarkFastPathTransfer is BulkTransfer reported per operation
// rather than per byte.
func BenchmarkFastPathTransfer(b *testing.B) { bulkTransfer.bench(b) }

func BenchmarkFastPathTurnsLossy(b *testing.B) { fastPathTurnsLossy.bench(b) }

func BenchmarkGilbertLossyTransfer(b *testing.B) { gilbertLossy().bench(b) }

// BenchmarkLossRateSweep sweeps i.i.d. loss rates across the regime the
// studies exercise, bounding how lossy-lane throughput decays as
// recovery exchanges crowd out new data.
func BenchmarkLossRateSweep(b *testing.B) {
	for _, rate := range []float64{0.001, 0.005, 0.01, 0.02, 0.05} {
		b.Run(fmt.Sprintf("loss=%g", rate), func(b *testing.B) {
			sc := lossyTransfer(simnet.PathParams{Delay: 10 * time.Millisecond, LossRate: rate})
			b.SetBytes(int64(sc.size))
			sc.bench(b)
		})
	}
}

// BenchmarkLossyTransfer measures recovery-path cost: 256 KB at 2%
// loss with SACK.
func BenchmarkLossyTransfer(b *testing.B) {
	sc := lossyTransfer(simnet.PathParams{Delay: 10 * time.Millisecond, LossRate: 0.02})
	b.SetBytes(int64(sc.size))
	sc.bench(b)
}

// TestTransferAllocPins pins what one whole transfer allocates — world
// set-up, handshake, every segment, teardown — in each benchmarked
// scenario, at a fixed seed so the count is exact. On the fast lane a
// segment allocates nothing (a subslice of the queued write, by-value
// lane entries), so a transfer costs tens of objects however many
// segments it carries, and recovery adds timers — the two lossy pins
// fell 220 → 139 and 111 → 85 when recovery exchanges stopped leaving
// the lane (no segment boxed into a Packet while a hole is open), then
// to 66 and 63 when SACK blocks moved into the lane slots' side
// storage. A limit 10 % over the measured
// count leaves room for set-up changes and none for one more allocation
// per segment, packet or event (256 KB is ≈ 180 segments, 1 MB ≈ 720).
func TestTransferAllocPins(t *testing.T) {
	tests := []struct {
		name     string
		sc       transferScenario
		measured float64 // allocations per transfer at seed 1
	}{
		{"BulkTransfer", bulkTransfer, 54}, // also BenchmarkFastPathTransfer: one scenario
		{"FastPathTurnsLossy", fastPathTurnsLossy, 66},
		{"GilbertLossyTransfer", gilbertLossy(), 63},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			payload := make([]byte, tc.sc.size)
			got := testing.AllocsPerRun(5, func() { tc.sc.run(t, 1, payload) })
			t.Logf("MEASURED %s %v", tc.name, got)
			if limit := tc.measured * 1.1; got > limit {
				t.Errorf("one transfer allocated %.0f objects, more than 10 %% over the pinned %.0f",
					got, tc.measured)
			}
		})
	}
}
