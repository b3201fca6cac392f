// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through the public functions of the layers, checks the
// run's outputs, and prints one JSON result line: the end-to-end metrics of
// an untraced run, or (with -trace 1) the per-layer metrics of a traced run
// and its overhead against an untraced run of the same inputs.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload tenant-rpc --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and what each
// layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps a workload name to its runner. A runner builds its system
// from the seed, runs closed-loop steps for at least budget (and at least
// its fixed checked prefix), checks its outputs and fills a report. A nil
// tracer means an untraced run.
var workloads = map[string]func(seed int64, budget time.Duration, tr *tracer) (*report, error){
	"tenant-rpc":  runTenantRPC,
	"fleet-admit": runFleetAdmit,
	"geo-ring":    runGeoRing,
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/perfbench-traces"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var res result
	var err error
	if *traceFlag == 1 {
		res, err = tracedRun(*name, *seed, budget, run)
	} else {
		res, err = untracedRun(*seed, budget, run)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(seed int64, budget time.Duration,
	run func(int64, time.Duration, *tracer) (*report, error)) (result, error) {
	rep, err := run(seed, budget, nil)
	if err != nil {
		return result{}, err
	}
	printNotes(rep)
	return finish(rep, rep.e2e, endToEnd, true), nil
}

// tracedRun runs the workload twice on the same inputs, each for half the
// budget: untraced, then traced. The per-layer metrics come from the
// traced half; trace.overhead_pct compares the two halves' median step
// time.
func tracedRun(name string, seed int64, budget time.Duration,
	run func(int64, time.Duration, *tracer) (*report, error)) (result, error) {
	base, err := run(seed, budget/2, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", name, seed, time.Now().UnixNano()))
	rep, err := run(seed, budget/2, tr)
	if err != nil {
		return result{}, err
	}
	rep.attempted += base.attempted
	rep.failed += base.failed
	rep.problems = append(base.problems, rep.problems...)
	if base.fingerprint != rep.fingerprint {
		rep.fail("traced fingerprint %s differs from untraced %s", rep.fingerprint, base.fingerprint)
	}
	basePct := base.steps.percentile(50)
	rep.layer["trace.overhead_pct"] = 100 * (rep.steps.percentile(50)/basePct - 1)
	rep.layer["trace.spans"] = float64(len(tr.spans))
	for span, ms := range tr.selfTimes() {
		rep.layer["self."+span+"_ms"] = ms
	}
	path, err := tr.write(traceDir)
	if err != nil {
		return result{}, err
	}
	rep.note("trace: %d spans written to %s; step median untraced %.4f ms, traced %.4f ms",
		len(tr.spans), filepath.ToSlash(path), basePct, rep.steps.percentile(50))
	printNotes(rep)
	return finish(rep, rep.layer, perLayer, false), nil
}

// finish assembles the result line. Every catalogued metric is printed;
// an end-to-end metric that the run did not produce, or produced as zero,
// fails the run. Per-layer metrics of idle layers read 0.
func finish(rep *report, values map[string]float64, defs []metricDef, nonZero bool) result {
	res := result{Attempted: rep.attempted, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := values[d.name]
		if nonZero && !(v > 0) {
			rep.fail("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		rep.fail("no operation attempted")
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	res.Failed = rep.failed
	res.Correct = rep.failed == 0
	return res
}

func printNotes(rep *report) {
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
}
