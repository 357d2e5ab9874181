package simnet

import (
	"testing"
	"time"

	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
)

// wirings are the instrumentation states the event engine and the
// packet path must stay allocation-free under — nothing attached, a
// metrics registry wired, a wall-clock telemetry hub attached (batched
// atomic adds, flushed every rtFlushInterval events). The benchmarks
// below measure each state's overhead; TestScheduleStepZeroAlloc and
// TestNetworkSendZeroAlloc pin each at zero allocations.
var wirings = []struct {
	name string
	wire func(s *Sim)
}{
	{"bare", bare},
	{"metrics", withMetrics},
	{"runtime", withRuntime},
}

func bare(*Sim) {}

func withMetrics(s *Sim) { s.SetMetrics(NewMetrics(obs.NewRegistry())) }

func withRuntime(s *Sim) { s.SetRuntime(rt.NewEngine()) }

// benchEventThroughput measures raw scheduler throughput: schedule and
// drain chains of events.
func benchEventThroughput(b *testing.B, wire func(*Sim)) {
	s := New(1)
	wire(s)
	var fn func()
	remaining := b.N
	fn = func() {
		if remaining > 0 {
			remaining--
			s.Schedule(time.Microsecond, fn)
		}
	}
	s.Schedule(0, fn)
	b.ResetTimer()
	s.Run()
}

// benchNetworkSend measures per-packet delivery cost on a configured
// path.
func benchNetworkSend(b *testing.B, wire func(*Sim)) {
	s := New(2)
	n := NewNetwork(s)
	wire(s)
	n.Attach("dst", HandlerFunc(func(Packet) {}))
	n.SetPath("src", "dst", PathParams{Delay: time.Millisecond})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(Packet{From: "src", To: "dst", Size: 1460})
		if i%1024 == 0 {
			s.Run() // drain periodically to bound the heap
		}
	}
	s.Run()
}

func BenchmarkEventThroughput(b *testing.B)        { benchEventThroughput(b, bare) }
func BenchmarkEventThroughputMetrics(b *testing.B) { benchEventThroughput(b, withMetrics) }
func BenchmarkEventThroughputRuntime(b *testing.B) { benchEventThroughput(b, withRuntime) }

func BenchmarkNetworkSend(b *testing.B)        { benchNetworkSend(b, bare) }
func BenchmarkNetworkSendMetrics(b *testing.B) { benchNetworkSend(b, withMetrics) }
func BenchmarkNetworkSendRuntime(b *testing.B) { benchNetworkSend(b, withRuntime) }
