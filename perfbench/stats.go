package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may be reported at, highest
// first. A timing reports the highest one with at least minBeyond samples
// beyond it.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it; 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p in n samples,
// ceil(p·n/100), in integer per-mille arithmetic so 99% of 1000 is
// exactly 990.
func rank(n int, p float64) int {
	permille := int64(math.Round(p * 10))
	r := int((permille*int64(n) + 999) / 1000)
	if r < 1 {
		r = 1
	}
	return r
}

// timings collects per-operation host durations.
type timings struct{ ns []int64 }

func (t *timings) add(d time.Duration) { t.ns = append(t.ns, int64(d)) }

func (t *timings) n() int { return len(t.ns) }

// percentile returns the nearest-rank percentile in milliseconds.
func (t *timings) percentile(p float64) float64 {
	if len(t.ns) == 0 || p <= 0 {
		return 0
	}
	s := append([]int64(nil), t.ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(len(s), p)-1]) / 1e6
}

// total returns the summed duration in seconds.
func (t *timings) total() float64 {
	var sum int64
	for _, v := range t.ns {
		sum += v
	}
	return float64(sum) / 1e9
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// liveHeapMB forces a collection and returns the live heap in MiB. Read at
// a workload's checked point it measures what the built system retains,
// independent of GC pacing and of how far the run got.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcCounters snapshots the collector's cycle count and total pause time.
type gcCounters struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
