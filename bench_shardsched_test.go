package resex

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"resex/internal/schedshard"
	"resex/internal/sim"
)

// ---------------------------------------------------------------------------
// BenchmarkShardSched: the 2k-host placement round, before/after.
//
// Baseline: a cost-faithful replica of the pre-schedshard serial path — for
// every arriving VM, rebuild the full fleet snapshot (one cloned HostInfo
// plus a copied VM slice per host, exactly what Fleet.buildSnapshot
// allocated per placement decision) and run the old allocating Select
// (fresh trace slice + sort.Slice) over it.
//
// Current: the schedshard store + one-shard scheduler — publish the fleet
// once, then place in waves of rounds against immutable snapshots with
// copy-on-write commits. One logical shard keeps the comparison
// apples-to-apples on placement quality (zero conflicts, serial
// semantics); the round machinery being measured is what multi-shard runs
// execute per shard.
//
// Both sides score the same number of (host, spec) pairs; the measured
// difference is what the snapshot/delta-commit store eliminates: the
// per-placement O(hosts) rebuild and the per-call trace/sort allocations.
// Ratios are same-process and machine-independent; cmd/benchgate -kind
// shardsched gates on them (and on the dense-fleet ratio below).
// ---------------------------------------------------------------------------

// shardBenchHosts/shardBenchVMs size the fleet. 2000 hosts is the ROADMAP
// target scale; 2500 VMs keeps the baseline's O(VMs·hosts) rebuild within
// benchmark-smoke time while filling ~4% of the fleet — rebuild cost does
// not depend on fill, so the ratio is representative.
const (
	shardBenchHosts = 2000
	shardBenchVMs   = 2500
	shardBenchWave  = 125
)

type shardBenchArrival struct {
	spec schedshard.Spec
	vm   schedshard.VMInfo
}

func shardBenchArrivals(seed int64) []shardBenchArrival {
	out := make([]shardBenchArrival, 0, shardBenchVMs)
	for i := 0; i < shardBenchVMs; i++ {
		var spec schedshard.Spec
		var vm schedshard.VMInfo
		if i%4 == 3 {
			spec = schedshard.Spec{Name: fmt.Sprintf("bulk%d", i), BufferSize: 2 << 20}
			vm = schedshard.VMInfo{Spec: spec, BytesPerSec: 60e6, BufferSize: 2 << 20}
		} else {
			spec = schedshard.Spec{Name: fmt.Sprintf("ls%d", i), LatencySensitive: true, BufferSize: 64 << 10}
			vm = schedshard.VMInfo{Spec: spec, BytesPerSec: 2e6, BufferSize: 64 << 10}
		}
		out = append(out, shardBenchArrival{spec: spec, vm: vm})
	}
	rng := sim.NewRand(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func shardBenchFleet() []*schedshard.HostInfo {
	hosts := make([]*schedshard.HostInfo, shardBenchHosts)
	for i := range hosts {
		hosts[i] = &schedshard.HostInfo{
			Node: i + 1, FreePCPUs: 31, TotalPCPUs: 31,
			LinkBytesPerSec: 1e9, ResoHeadroom: 1,
		}
	}
	return hosts
}

// legacyPipeline replicates the pre-schedshard Pipeline.Select hot path
// exactly: the same plugin chain, but a fresh trace allocation per call and
// a sort.Slice (closure + reflect swapper) over it.
type legacyPipeline struct {
	filters []schedshard.FilterPlugin
	scorers []legacyScorer
}

type legacyScorer struct {
	plugin schedshard.ScorePlugin
	weight float64
}

// legacyHostScore is one host's entry in the legacy score trace.
type legacyHostScore struct {
	Node     int
	Feasible bool
	Score    float64
}

func newLegacyInterferencePipeline() *legacyPipeline {
	return &legacyPipeline{
		filters: []schedshard.FilterPlugin{schedshard.FitsPCPUs{}, schedshard.HealthyHost{}},
		scorers: []legacyScorer{
			{schedshard.InterferenceAware{}, 1},
			{schedshard.ResoHeadroom{}, 0.3},
			{schedshard.SpreadByCPU{}, 0.5},
		},
	}
}

func (p *legacyPipeline) Select(hosts []*schedshard.HostInfo, s schedshard.Spec) (*schedshard.HostInfo, []legacyHostScore) {
	var best *schedshard.HostInfo
	bestScore := 0.0
	trace := make([]legacyHostScore, 0, len(hosts))
	for _, h := range hosts {
		hs := legacyHostScore{Node: h.Node, Feasible: true}
		for _, f := range p.filters {
			if !f.Filter(h, s) {
				hs.Feasible = false
				break
			}
		}
		if hs.Feasible {
			for _, ws := range p.scorers {
				hs.Score += ws.weight * ws.plugin.Score(h, s)
			}
			if best == nil || hs.Score > bestScore ||
				(hs.Score == bestScore && h.Node < best.Node) {
				best, bestScore = h, hs.Score
			}
		}
		trace = append(trace, hs)
	}
	sort.Slice(trace, func(i, j int) bool { return trace[i].Node < trace[j].Node })
	return best, trace
}

// measureShardBaseline: rebuild-the-world serial placement.
func measureShardBaseline(arrivals []shardBenchArrival) (elapsed time.Duration, mallocs uint64, placed int) {
	master := shardBenchFleet()
	pipe := newLegacyInterferencePipeline()
	rebuild := func() []*schedshard.HostInfo {
		out := make([]*schedshard.HostInfo, len(master))
		for i, h := range master {
			c := *h
			c.VMs = append([]schedshard.VMInfo(nil), h.VMs...)
			out[i] = &c
		}
		return out
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, a := range arrivals {
		snap := rebuild()
		best, _ := pipe.Select(snap, a.spec)
		if best == nil {
			continue
		}
		h := master[best.Node-1]
		h.FreePCPUs--
		h.IOCommitted += a.vm.BytesPerSec / h.LinkBytesPerSec
		h.VMs = append(h.VMs, a.vm)
		placed++
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, placed
}

// measureShardRounds: snapshot store + one-shard scheduler in waves, over
// the given fleet with the given pipeline (nil: the stock interference
// pipeline). Returns the scheduler for its binds.
func measureShardRounds(arrivals []shardBenchArrival, fleet []*schedshard.HostInfo, newPipe func() *schedshard.Pipeline) (elapsed time.Duration, mallocs uint64, sched *schedshard.Scheduler) {
	store := schedshard.NewStore()
	store.Publish(fleet)
	sched = schedshard.NewScheduler(store, schedshard.Config{Shards: 1, Workers: 1, Seed: 7, NewPipeline: newPipe})
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for lo := 0; lo < len(arrivals); lo += shardBenchWave {
		hi := min(lo+shardBenchWave, len(arrivals))
		for _, a := range arrivals[lo:hi] {
			sched.Enqueue(a.spec, a.vm)
		}
		sched.Round()
	}
	sched.Run()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, sched
}

// ---------------------------------------------------------------------------
// Dense-fleet case: interference scoring against resident VMs.
//
// The fleet above starts empty, so InterferenceAware has almost nothing to
// scan. Here every host already runs shardDenseResidents VMs (every fourth
// host bulk senders, the rest latency-sensitive, like perfbench's
// fleet-admit), and the same arrivals go through the same one-shard
// scheduler twice: once with the stock interference pipeline, whose
// InterferenceAware reads the Store's per-host digest, and once with
// scanInterference, a replica of the pre-digest scorer that walks every
// resident by value. The two must bind identically (the digest is
// bit-exact); the ratio is what the digest saves.
// ---------------------------------------------------------------------------

const shardDenseResidents = 25

func shardBenchDenseFleet() []*schedshard.HostInfo {
	hosts := shardBenchFleet()
	for i, h := range hosts {
		h.VMs = make([]schedshard.VMInfo, 0, shardDenseResidents)
		for j := 0; j < shardDenseResidents; j++ {
			spec := schedshard.Spec{Name: fmt.Sprintf("r%d-%d", i, j), LatencySensitive: true, BufferSize: 64 << 10}
			vm := schedshard.VMInfo{Spec: spec, BytesPerSec: 2e6, BufferSize: 64 << 10}
			if i%4 == 0 {
				spec = schedshard.Spec{Name: spec.Name, BufferSize: 2 << 20}
				vm = schedshard.VMInfo{Spec: spec, BytesPerSec: 30e6, BufferSize: 2 << 20}
			}
			h.VMs = append(h.VMs, vm)
			h.FreePCPUs--
			h.IOCommitted += vm.BytesPerSec / h.LinkBytesPerSec
		}
	}
	return hosts
}

// scanInterference replicates the pre-digest InterferenceAware.Score at
// its default parameters: a by-value walk over every resident per call.
type scanInterference struct{}

func (scanInterference) Name() string { return "interference-scan" }

func (scanInterference) Score(h *schedshard.HostInfo, s schedshard.Spec) float64 {
	const large, static = 256 << 10, 1.0
	penalty := 0.0
	if s.LatencySensitive {
		for _, vm := range h.VMs {
			if vm.EffectiveBuffer() >= large {
				penalty += static
				if h.LinkBytesPerSec > 0 {
					penalty += vm.BytesPerSec / h.LinkBytesPerSec
				}
			}
		}
	} else if s.BufferSize >= large {
		for _, vm := range h.VMs {
			if vm.Spec.LatencySensitive {
				penalty += static
			}
		}
	}
	return 1 / (1 + penalty)
}

// newScanInterferencePipeline is NewInterferencePipeline with the scan
// scorer in place of InterferenceAware.
func newScanInterferencePipeline() *schedshard.Pipeline {
	return schedshard.NewPipeline().
		AddFilter(schedshard.FitsPCPUs{}).
		AddFilter(schedshard.HealthyHost{}).
		AddFilter(schedshard.MemBWFit{}).
		AddScorer(scanInterference{}, 1).
		AddScorer(schedshard.ResoHeadroom{}, 0.3).
		AddScorer(schedshard.SpreadByCPU{}, 0.5)
}

// benchShardJSON is the BENCH_shardsched.json schema; cmd/benchgate -kind
// shardsched reads it.
type benchShardJSON struct {
	Benchmark  string          `json:"benchmark"`
	Hosts      int             `json:"hosts"`
	VMs        int             `json:"vms"`
	Placements int             `json:"placements"`
	Baseline   benchShardSide  `json:"baseline"`
	Current    benchShardSide  `json:"current"`
	Speedup    float64         `json:"speedup"`
	Dense      benchShardDense `json:"dense"`
}

// benchShardDense records the dense-fleet digest-vs-scan comparison.
type benchShardDense struct {
	Hosts            int            `json:"hosts"`
	ResidentsPerHost int            `json:"residents_per_host"`
	Placements       int            `json:"placements"`
	Scan             benchShardSide `json:"scan"`
	Digest           benchShardSide `json:"digest"`
	Speedup          float64        `json:"speedup"`
}

type benchShardSide struct {
	Scheduler          string  `json:"scheduler"`
	NsPerPlacement     float64 `json:"ns_per_placement"`
	AllocsPerPlacement float64 `json:"allocs_per_placement"`
}

// BenchmarkShardSched measures the placement round at fleet scale and
// records BENCH_shardsched.json for the CI bench gate.
func BenchmarkShardSched(b *testing.B) {
	var out benchShardJSON
	for i := 0; i < b.N; i++ {
		arrivals := shardBenchArrivals(7)
		lElapsed, lMallocs, lPlaced := measureShardBaseline(arrivals)
		cElapsed, cMallocs, cur := measureShardRounds(arrivals, shardBenchFleet(), nil)
		if cPlaced := len(cur.Bound()); lPlaced != len(arrivals) || cPlaced != len(arrivals) {
			b.Fatalf("placed baseline=%d current=%d, want %d", lPlaced, cPlaced, len(arrivals))
		}
		side := func(name string, d time.Duration, mallocs uint64) benchShardSide {
			return benchShardSide{
				Scheduler:          name,
				NsPerPlacement:     float64(d.Nanoseconds()) / float64(len(arrivals)),
				AllocsPerPlacement: float64(mallocs) / float64(len(arrivals)),
			}
		}
		out = benchShardJSON{
			Benchmark:  "BenchmarkShardSched",
			Hosts:      shardBenchHosts,
			VMs:        shardBenchVMs,
			Placements: len(arrivals),
			Baseline:   side("rebuild+select", lElapsed, lMallocs),
			Current:    side("snapshot-store+1shard", cElapsed, cMallocs),
		}
		out.Speedup = out.Baseline.NsPerPlacement / out.Current.NsPerPlacement

		sElapsed, sMallocs, scan := measureShardRounds(arrivals, shardBenchDenseFleet(), newScanInterferencePipeline)
		dElapsed, dMallocs, digest := measureShardRounds(arrivals, shardBenchDenseFleet(), nil)
		if len(scan.Bound()) != len(arrivals) || len(digest.Bound()) != len(arrivals) {
			b.Fatalf("dense placed scan=%d digest=%d, want %d", len(scan.Bound()), len(digest.Bound()), len(arrivals))
		}
		if scan.BindFNV() != digest.BindFNV() {
			b.Fatalf("dense binds differ: scan %016x, digest %016x", scan.BindFNV(), digest.BindFNV())
		}
		out.Dense = benchShardDense{
			Hosts:            shardBenchHosts,
			ResidentsPerHost: shardDenseResidents,
			Placements:       len(arrivals),
			Scan:             side("scan-scorer+1shard", sElapsed, sMallocs),
			Digest:           side("digest-scorer+1shard", dElapsed, dMallocs),
		}
		out.Dense.Speedup = out.Dense.Scan.NsPerPlacement / out.Dense.Digest.NsPerPlacement
	}
	b.ReportMetric(out.Speedup, "placement_speedup")
	b.ReportMetric(out.Dense.Speedup, "dense_speedup")
	b.ReportMetric(out.Current.AllocsPerPlacement, "allocs/placement")
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_shardsched.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
