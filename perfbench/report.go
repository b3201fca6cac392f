package main

import (
	"fmt"
	"runtime"
	"time"
)

// Set-up is built at least setupMinRepeats times and until setupMinSeconds
// of builds have been timed, at most setupMaxRepeats times; setup_s reports
// the median. A cheap build is thus timed often enough to rise above timer
// and scheduling noise.
const (
	setupMinRepeats = 15
	setupMinSeconds = 1.0
	setupMaxRepeats = 500
)

// maxWorkers bounds a workload's goroutines: at most 2, and at most the
// machine's CPUs.
func maxWorkers() int {
	return min(2, runtime.NumCPU())
}

// setupMedian times build repeatedly and returns the median host seconds.
// Each build starts from a freshly collected heap, so garbage left by
// earlier work (an earlier build included) does not land in the timing.
// release, when not nil, frees the previous build, untimed.
func setupMedian(build func() error, release func()) (float64, error) {
	var xs []float64
	total := 0.0
	for len(xs) < setupMinRepeats || (total < setupMinSeconds && len(xs) < setupMaxRepeats) {
		if release != nil && len(xs) > 0 {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		err := build()
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		xs = append(xs, d)
		total += d
	}
	return median(xs), nil
}

// report is one workload run's outcome.
type report struct {
	attempted int
	failed    int
	problems  []string // correctness failures, one per failed check
	notes     []string // human-readable context, printed to stderr
	e2e       map[string]float64
	layer     map[string]float64
	steps     timings // host time of each closed-loop step
	// fingerprint digests the run's deterministic outcome at its checked
	// point; it is compared against recordedFingerprints when the seed has
	// an entry.
	fingerprint string
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkFingerprint compares the run's fingerprint with the value recorded
// for this workload and seed, if there is one.
func (r *report) checkFingerprint(workload string, seed int64) {
	want, ok := recordedFingerprints[workload][seed]
	if !ok {
		r.note("%s: fingerprint %s (no recorded value for seed %d)", workload, r.fingerprint, seed)
		return
	}
	if want != r.fingerprint {
		r.fail("%s: fingerprint %s, recorded %s for seed %d", workload, r.fingerprint, want, seed)
		return
	}
	r.note("%s: fingerprint %s matches the value recorded for seed %d", workload, r.fingerprint, seed)
}

// stepMetrics reports the step timings: the median and the highest
// percentile (at most p99) with at least minBeyond samples beyond it.
func (r *report) stepMetrics() {
	n := r.steps.n()
	tail := tailPercentile(n)
	r.e2e["step_p50_ms"] = r.steps.percentile(50)
	r.e2e["step_p99_ms"] = r.steps.percentile(tail)
	r.note("steps: n=%d, median %.4f ms, p%g %.4f ms", n,
		r.e2e["step_p50_ms"], tail, r.e2e["step_p99_ms"])
	if tail < 99 {
		r.note("steps: only %d samples, step_p99_ms reports p%g", n, tail)
	}
}

// gcLayers reports the collector's work since gc0.
func (r *report) gcLayers(gc0 gcCounters) {
	gc := readGC()
	r.layer["gc.cycles"] = float64(gc.cycles - gc0.cycles)
	r.layer["gc.pause_ms"] = float64(gc.pauseNs-gc0.pauseNs) / 1e6
}
