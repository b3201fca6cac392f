package resex

import (
	"container/heap"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"resex/internal/experiments"
	"resex/internal/sim"
)

// ---------------------------------------------------------------------------
// Legacy event-queue replica: the container/heap implementation the zero-alloc
// core replaced. Kept here (test-only) so BenchmarkEngineCore can measure the
// before/after ratio on the machine running the benchmark — absolute ns/op
// vary across CI runners, the speedup of one engine over the other does not.
// ---------------------------------------------------------------------------

type legacyEvent struct {
	at       int64
	seq      uint64
	fn       func()
	index    int
	canceled bool
}

type legacyQueue []*legacyEvent

func (q legacyQueue) Len() int { return len(q) }
func (q legacyQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q legacyQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *legacyQueue) Push(x any) {
	ev := x.(*legacyEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *legacyQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type legacyTimer struct {
	eng *legacyEngine
	ev  *legacyEvent
}

type legacyEngine struct {
	now    int64
	events legacyQueue
	seq    uint64
}

// schedule mirrors the old Engine.Schedule: one heap event allocation plus
// one boxed *Timer handle per call.
func (e *legacyEngine) schedule(at int64, fn func()) *legacyTimer {
	e.seq++
	ev := &legacyEvent{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return &legacyTimer{eng: e, ev: ev}
}

func (e *legacyEngine) run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*legacyEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
	}
}

// ---------------------------------------------------------------------------
// BenchmarkEngineCore: before/after event-core comparison + parallel-sweep
// speedup, persisted to BENCH_core.json for the CI bench gate.
// ---------------------------------------------------------------------------

// coreEvents is the fixed self-tick chain length both engines execute per
// measurement. Large enough to amortize setup, small enough for -benchtime=1x
// CI smoke runs.
const coreEvents = 2_000_000

// measureLegacy runs the chain on the container/heap replica, returning wall
// ns and allocation deltas.
func measureLegacy() (elapsed time.Duration, mallocs, bytes uint64) {
	eng := &legacyEngine{}
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < coreEvents {
			eng.schedule(eng.now+100, tick)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	eng.schedule(eng.now+100, tick)
	eng.run()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// measureCurrent runs the identical chain on the production engine.
func measureCurrent() (elapsed time.Duration, mallocs, bytes uint64) {
	eng := sim.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < coreEvents {
			eng.After(100, tick)
		}
	}
	// Warm the event pool so the measured window sees the steady state the
	// experiments run in (the pool holds well under 1 MB at cap).
	eng.After(100, func() {})
	eng.Run()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	eng.After(100, tick)
	eng.Run()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// benchEngineJSON is the BENCH_core.json schema; cmd/benchgate reads it.
type benchEngineJSON struct {
	Benchmark string          `json:"benchmark"`
	Events    int             `json:"events"`
	Baseline  benchEngineSide `json:"baseline"`
	Current   benchEngineSide `json:"current"`
	Speedup   float64         `json:"speedup"`
	Sweep     benchSweepJSON  `json:"sweep"`
}

type benchEngineSide struct {
	Engine         string  `json:"engine"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

type benchSweepJSON struct {
	Experiment string `json:"experiment"`
	Workers    int    `json:"workers"`
	// CPUs is the machine's core count: the sweep ratio can only beat 1.0
	// when there are cores for the workers to land on.
	CPUs       int     `json:"cpus"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// Note flags records whose ratio is not meaningful on the recording
	// machine (single-core runners). benchgate prints it instead of
	// silently treating such a sweep as a pass.
	Note string `json:"note,omitempty"`
}

// BenchmarkEngineCore measures the zero-alloc event core against the legacy
// container/heap queue it replaced, plus the parallel sweep runner against
// the serial loop, and records everything in BENCH_core.json. The CI bench
// smoke job runs this at -benchtime=1x and gates on the recorded ratios via
// cmd/benchgate.
func BenchmarkEngineCore(b *testing.B) {
	var out benchEngineJSON
	for i := 0; i < b.N; i++ {
		lElapsed, lMallocs, lBytes := measureLegacy()
		cElapsed, cMallocs, cBytes := measureCurrent()
		side := func(name string, d time.Duration, mallocs, bytes uint64) benchEngineSide {
			ns := float64(d.Nanoseconds()) / coreEvents
			return benchEngineSide{
				Engine:         name,
				NsPerEvent:     ns,
				EventsPerSec:   1e9 / ns,
				AllocsPerEvent: float64(mallocs) / coreEvents,
				BytesPerEvent:  float64(bytes) / coreEvents,
			}
		}
		out = benchEngineJSON{
			Benchmark: "BenchmarkEngineCore",
			Events:    coreEvents,
			Baseline:  side("container/heap", lElapsed, lMallocs, lBytes),
			Current:   side("indexed-4ary+pool", cElapsed, cMallocs, cBytes),
		}
		out.Speedup = out.Baseline.NsPerEvent / out.Current.NsPerEvent

		// Sweep runner: the same figure serially and on 4 workers. Identical
		// output is asserted by the experiments tests; here we record the
		// wall-clock ratio.
		sweepOpts := experiments.Options{
			Duration: 100 * sim.Millisecond,
			Warmup:   25 * sim.Millisecond,
		}
		serialStart := time.Now()
		if _, err := experiments.AblCapacity(sweepOpts); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(serialStart)
		sweepOpts.Parallel = 4
		parStart := time.Now()
		if _, err := experiments.AblCapacity(sweepOpts); err != nil {
			b.Fatal(err)
		}
		par := time.Since(parStart)
		out.Sweep = benchSweepJSON{
			Experiment: "abl-capacity",
			Workers:    4,
			CPUs:       runtime.NumCPU(),
			SerialMs:   float64(serial.Nanoseconds()) / 1e6,
			ParallelMs: float64(par.Nanoseconds()) / 1e6,
			Speedup:    serial.Seconds() / par.Seconds(),
		}
		if out.Sweep.CPUs == 1 {
			out.Sweep.Note = "single-core machine: 4 workers share 1 CPU, ratio reflects goroutine overhead, not sweep scaling"
		}
	}
	b.ReportMetric(out.Current.EventsPerSec, "events/sec")
	b.ReportMetric(out.Speedup, "core_speedup")
	b.ReportMetric(out.Current.AllocsPerEvent, "allocs/event")
	b.ReportMetric(out.Sweep.Speedup, "sweep_speedup")
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_core.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
