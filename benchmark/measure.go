package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// repStats is what one timed repetition cost the host.
type repStats struct {
	WallS      float64
	CPUS       float64 // process user+sys, so background GC on the spare core counts
	AllocBytes uint64
	Mallocs    uint64
	HeapP99MB  float64
	GCCycles   uint32
	GCPauseMS  float64
}

// heapSampler reads the live-object heap size every millisecond from
// one goroutine. The maximum of that series moves ±25 % run to run on a
// 20 MB heap; its 99th percentile is the steady statistic.
type heapSampler struct {
	sample  [1]metrics.Sample
	buf     []uint64
	stopCh  chan struct{}
	stopped sync.WaitGroup
}

// maxHeapSamples bounds one repetition's series (two minutes at 1 kHz).
const maxHeapSamples = 120_000

func newHeapSampler() *heapSampler {
	h := &heapSampler{buf: make([]uint64, 0, maxHeapSamples)}
	h.sample[0].Name = "/memory/classes/heap/objects:bytes"
	return h
}

func (h *heapSampler) read() uint64 {
	metrics.Read(h.sample[:])
	return h.sample[0].Value.Uint64()
}

// start begins a fresh series; stop must follow.
func (h *heapSampler) start() {
	h.buf = h.buf[:0]
	h.stopCh = make(chan struct{})
	h.stopped.Add(1)
	go func() {
		defer h.stopped.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
				if len(h.buf) < cap(h.buf) {
					h.buf = append(h.buf, h.read())
				}
			}
		}
	}()
}

// stop ends the series and returns its 99th percentile in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.stopped.Wait()
	if len(h.buf) == 0 {
		h.buf = append(h.buf, h.read())
	}
	xs := make([]float64, len(h.buf))
	for i, v := range h.buf {
		xs[i] = float64(v) / 1e6
	}
	return quantile(xs, 0.99)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measureRep times one repetition. The heap is collected first so every
// repetition starts from the same live set.
func measureRep(h *heapSampler, fn func() error) (repStats, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	h.start()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	p99 := h.stop()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return repStats{
		WallS:      wall.Seconds(),
		CPUS:       cpu1 - cpu0,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		HeapP99MB:  p99,
		GCCycles:   m1.NumGC - m0.NumGC,
		GCPauseMS:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}, err
}

// quantile is the linearly interpolated q-quantile of xs (unsorted ok).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a median with its quartiles and sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(xs []float64, unit string) summary {
	return summary{Value: median(xs), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// tailOf returns the highest percentile ≤ 99 with at least ten samples
// beyond it, and that percentile's value.
func tailOf(xs []float64) (pct, value float64) {
	pct = tailPctFor(len(xs))
	return pct, quantile(xs, pct/100)
}

// tailPctFor is tailOf's percentile choice for a sample count alone
// (sketches give quantiles, not samples).
func tailPctFor(n int) float64 {
	pct := 99.0
	for pct > 50 && float64(n)*(100-pct)/100 < 10 {
		pct--
	}
	return pct
}
