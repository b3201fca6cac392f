// Command benchgate enforces the performance contracts recorded by the
// repo's comparison benchmarks. Two kinds:
//
//   - -kind core (default): the event-core contract in BENCH_core.json
//     (written by BenchmarkEngineCore). Fails when the current engine
//     allocates on the steady-state event path (allocs_per_event > 0, with
//     a tiny epsilon for runtime background noise caught between the
//     MemStats samples) or the speedup over the in-process container/heap
//     baseline drops below the floor — the acceptance target (2x) minus a
//     10% regression budget.
//
//   - -kind shardsched: the fleet-placement contract in
//     BENCH_shardsched.json (written by BenchmarkShardSched). Fails when
//     the snapshot-store scheduler's speedup over the rebuild-the-world
//     baseline drops below the floor, or the per-placement allocation
//     count exceeds the copy-on-write budget (the hot path itself is
//     zero-alloc; commits clone only the hosts they touch), or the
//     dense-fleet digest scorer's speedup over the per-resident scan
//     scorer drops below its floor.
//
//   - -kind simpar: the sharded-simulation contract in BENCH_simpar.json
//     (written by BenchmarkSimPar). The fingerprint match — serial and
//     parallel runs byte-identical — is enforced unconditionally. The
//     wall-clock speedup, unlike the other gates' ratios, needs real cores
//     to exist: the full 3x floor applies at >= 8 CPUs, a per-core scaled
//     floor between 2 and 7 CPUs, and on a single-core machine the ratio
//     is reported as a warning only (workers share one CPU; the only
//     claim checkable there is determinism, and it is checked).
//
// Any kind also fails when the file is missing or unreadable — the bench
// smoke job must have run.
//
// Gates compare two configurations measured in the same process on the
// same machine, so they are immune to CI runner speed differences; a
// committed report from any machine documents the same ratio CI
// re-derives (modulo the simpar core-count scaling above).
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkEngineCore$' -benchtime=1x .
//	go run ./cmd/benchgate [-kind core] [-file BENCH_core.json]
//
//	go test -run '^$' -bench '^BenchmarkShardSched$' -benchtime=1x .
//	go run ./cmd/benchgate -kind shardsched [-file BENCH_shardsched.json]
//
//	go test -run '^$' -bench '^BenchmarkSimPar$' -benchtime=1x .
//	go run ./cmd/benchgate -kind simpar [-file BENCH_simpar.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// minSpeedup is the core acceptance floor: the 2x throughput target with a
// 10% regression budget.
const minSpeedup = 1.8

// maxAllocsPerEvent tolerates runtime-internal allocations (GC bookkeeping,
// timer goroutines) that can land between the MemStats samples; the event
// path itself contributes ~1 alloc/event when it regresses, far above this.
const maxAllocsPerEvent = 0.001

// minShardSpeedup is the placement-round floor. The recorded
// BENCH_shardsched.json shows ~5x on the 2k-host fleet; 3x leaves a wide
// regression budget while still catching a reintroduced per-placement
// rebuild (which lands at 1x by construction).
const minShardSpeedup = 3.0

// minDenseSpeedup is the dense-fleet interference-scoring floor: on 2k
// hosts with 25 residents each, the digest-backed InterferenceAware over a
// replica of the per-resident scan scorer. Measured 5.2–7.0x; 2.5x leaves
// a wide budget while still catching a scorer that scans residents again
// (which lands at 1x by construction).
const minDenseSpeedup = 2.5

// maxAllocsPerPlacement budgets the copy-on-write commit path: a commit
// clones each touched host once per round and the requeue/merge buffers
// amortize to near zero, so steady state measures ~2 allocs/placement. The
// legacy full-rebuild path costs thousands; 16 cleanly separates the two.
const maxAllocsPerPlacement = 16.0

// minSimParSpeedup is the sharded-simulation wall-clock floor at 8 workers
// on a machine with at least 8 CPUs: the 3x acceptance target. Below 8
// CPUs the floor scales per core (perCoreSimParFloor × CPUs, capped at
// 3x); on 1 CPU it is advisory only.
const minSimParSpeedup = 3.0

// perCoreSimParFloor is deliberately conservative (ideal scaling would be
// ~1x per core): conservative synchronization costs a barrier per
// lookahead window, and small fleets leave workers idle at every barrier.
const perCoreSimParFloor = 0.35

type side struct {
	Engine         string  `json:"engine"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

type report struct {
	Benchmark string  `json:"benchmark"`
	Events    int     `json:"events"`
	Baseline  side    `json:"baseline"`
	Current   side    `json:"current"`
	Speedup   float64 `json:"speedup"`
	Sweep     sweep   `json:"sweep"`
}

type sweep struct {
	Experiment string  `json:"experiment"`
	Workers    int     `json:"workers"`
	CPUs       int     `json:"cpus"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	Note       string  `json:"note,omitempty"`
}

type shardSide struct {
	Scheduler          string  `json:"scheduler"`
	NsPerPlacement     float64 `json:"ns_per_placement"`
	AllocsPerPlacement float64 `json:"allocs_per_placement"`
}

type shardReport struct {
	Benchmark  string     `json:"benchmark"`
	Hosts      int        `json:"hosts"`
	VMs        int        `json:"vms"`
	Placements int        `json:"placements"`
	Baseline   shardSide  `json:"baseline"`
	Current    shardSide  `json:"current"`
	Speedup    float64    `json:"speedup"`
	Dense      shardDense `json:"dense"`
}

type shardDense struct {
	Hosts            int       `json:"hosts"`
	ResidentsPerHost int       `json:"residents_per_host"`
	Placements       int       `json:"placements"`
	Scan             shardSide `json:"scan"`
	Digest           shardSide `json:"digest"`
	Speedup          float64   `json:"speedup"`
}

type simParReport struct {
	Benchmark  string  `json:"benchmark"`
	Sites      int     `json:"sites"`
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	CPUs       int     `json:"cpus"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	SerialFP   string  `json:"serial_fp"`
	ParallelFP string  `json:"parallel_fp"`
	FPMatch    bool    `json:"fingerprint_match"`
}

func main() {
	kind := flag.String("kind", "core", "which contract to check: core, shardsched or simpar")
	file := flag.String("file", "", "bench report to check (default depends on -kind)")
	flag.Parse()

	switch *kind {
	case "core":
		if *file == "" {
			*file = "BENCH_core.json"
		}
		gateCore(*file)
	case "shardsched":
		if *file == "" {
			*file = "BENCH_shardsched.json"
		}
		gateShardSched(*file)
	case "simpar":
		if *file == "" {
			*file = "BENCH_simpar.json"
		}
		gateSimPar(*file)
	default:
		fmt.Fprintf(os.Stderr, "benchgate: unknown -kind %q (want core, shardsched or simpar)\n", *kind)
		os.Exit(2)
	}
}

func gateCore(file string) {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\nrun: go test -run '^$' -bench '^BenchmarkEngineCore$' -benchtime=1x .\n", err)
		os.Exit(1)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", file, err)
		os.Exit(1)
	}
	if r.Events <= 0 || r.Current.NsPerEvent <= 0 || r.Baseline.NsPerEvent <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s: incomplete report\n", file)
		os.Exit(1)
	}

	fail := false
	if r.Current.AllocsPerEvent > maxAllocsPerEvent {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %.4f allocs/event on the steady-state path, want 0\n",
			r.Current.AllocsPerEvent)
		fail = true
	}
	if r.Speedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %.2fx over %s, floor is %.1fx (2x target - 10%% budget)\n",
			r.Speedup, r.Baseline.Engine, minSpeedup)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	// The sweep record is informational, but a single-core measurement must
	// not read as a silent pass: say out loud that its ratio proves nothing.
	if r.Sweep.Experiment != "" {
		switch {
		case r.Sweep.CPUs == 1:
			note := r.Sweep.Note
			if note == "" {
				note = "single-core machine: the sweep ratio reflects goroutine overhead, not scaling"
			}
			fmt.Printf("benchgate: WARN: sweep %s at %d workers on 1 CPU measured %.2fx — %s\n",
				r.Sweep.Experiment, r.Sweep.Workers, r.Sweep.Speedup, note)
		default:
			fmt.Printf("benchgate: sweep %s: %.2fx at %d workers on %d CPUs\n",
				r.Sweep.Experiment, r.Sweep.Speedup, r.Sweep.Workers, r.Sweep.CPUs)
		}
	}
	fmt.Printf("benchgate: ok: %.1f Mevents/s, %.2fx over %s, %.4f allocs/event\n",
		r.Current.EventsPerSec/1e6, r.Speedup, r.Baseline.Engine, r.Current.AllocsPerEvent)
}

// simParFloor is the wall-clock floor for a given core count; ok=false
// means the machine cannot support any scaling claim (warn-only).
func simParFloor(cpus int) (float64, bool) {
	switch {
	case cpus >= 8:
		return minSimParSpeedup, true
	case cpus >= 2:
		f := perCoreSimParFloor * float64(cpus)
		if f > minSimParSpeedup {
			f = minSimParSpeedup
		}
		return f, true
	default:
		return 0, false
	}
}

func gateSimPar(file string) {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\nrun: go test -run '^$' -bench '^BenchmarkSimPar$' -benchtime=1x .\n", err)
		os.Exit(1)
	}
	var r simParReport
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", file, err)
		os.Exit(1)
	}
	if r.Sites <= 0 || r.Workers <= 1 || r.SerialMs <= 0 || r.ParallelMs <= 0 || r.SerialFP == "" {
		fmt.Fprintf(os.Stderr, "benchgate: %s: incomplete report\n", file)
		os.Exit(1)
	}

	// Determinism first, on any machine: the serial and parallel runs of
	// the same fleet must have produced identical fingerprints.
	if !r.FPMatch || r.SerialFP != r.ParallelFP {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: worker width changed simulation output (serial %s vs parallel %s)\n",
			r.SerialFP, r.ParallelFP)
		os.Exit(1)
	}

	floor, scalable := simParFloor(r.CPUs)
	if !scalable {
		fmt.Printf("benchgate: WARN: %d workers on %d CPU measured %.2fx — no cores to scale onto; determinism verified (fp %s), speedup not gated\n",
			r.Workers, r.CPUs, r.Speedup, r.SerialFP)
		return
	}
	if r.Speedup < floor {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %.2fx at %d workers on %d CPUs, floor is %.2fx\n",
			r.Speedup, r.Workers, r.CPUs, floor)
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok: %.2fx at %d workers on %d CPUs (floor %.2fx), fp %s\n",
		r.Speedup, r.Workers, r.CPUs, floor, r.SerialFP)
}

func gateShardSched(file string) {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\nrun: go test -run '^$' -bench '^BenchmarkShardSched$' -benchtime=1x .\n", err)
		os.Exit(1)
	}
	var r shardReport
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", file, err)
		os.Exit(1)
	}
	if r.Placements <= 0 || r.Current.NsPerPlacement <= 0 || r.Baseline.NsPerPlacement <= 0 ||
		r.Dense.Placements <= 0 || r.Dense.Scan.NsPerPlacement <= 0 || r.Dense.Digest.NsPerPlacement <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s: incomplete report\n", file)
		os.Exit(1)
	}

	fail := false
	if r.Current.AllocsPerPlacement > maxAllocsPerPlacement {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %.2f allocs/placement, budget is %.0f (COW commit path)\n",
			r.Current.AllocsPerPlacement, maxAllocsPerPlacement)
		fail = true
	}
	if r.Speedup < minShardSpeedup {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %.2fx over %s, floor is %.1fx\n",
			r.Speedup, r.Baseline.Scheduler, minShardSpeedup)
		fail = true
	}
	if r.Dense.Speedup < minDenseSpeedup {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: dense fleet %.2fx over %s, floor is %.1fx\n",
			r.Dense.Speedup, r.Dense.Scan.Scheduler, minDenseSpeedup)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok: %d hosts, %.1f µs/placement, %.2fx over %s, %.2f allocs/placement\n",
		r.Hosts, r.Current.NsPerPlacement/1e3, r.Speedup, r.Baseline.Scheduler, r.Current.AllocsPerPlacement)
	fmt.Printf("benchgate: ok: dense %d hosts x %d residents, %.1f µs/placement, %.2fx over %s\n",
		r.Dense.Hosts, r.Dense.ResidentsPerHost, r.Dense.Digest.NsPerPlacement/1e3, r.Dense.Speedup, r.Dense.Scan.Scheduler)
}
