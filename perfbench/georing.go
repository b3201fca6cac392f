package main

import (
	"fmt"
	"runtime"
	"time"

	"resex/internal/experiments"
	"resex/internal/sim"
)

// geo-ring: the sharded geo fleet of abl-simpar, rebuilt and run again on
// fresh seeds until the budget is spent.
const (
	geoSites    = 8
	geoShards   = 2
	geoWarmup   = 20 * sim.Millisecond
	geoDuration = 200 * sim.Millisecond
	// geoSlice is the boundary period the run is timed in; it matches the
	// fleet's 2 ms telemetry epoch.
	geoSlice = 2 * sim.Millisecond
	// geoSLOUs is the trading app's latency objective: the paper's 240 µs
	// base SLA, which each site's ResEx manager enforces for it.
	geoSLOUs = experiments.BaseSLAUs
)

// geoSeed is the input seed of the run's i-th fleet.
func geoSeed(seed int64, i int) int64 { return seed + int64(i)*7919 }

// geoResult is one fleet's outcome.
type geoResult struct {
	row      experiments.AblSimParRow
	slices   timings // host time of each measured slice
	okSlices int     // measured slices whose windowed mean met geoSLOUs
	hostS    float64 // host seconds after warmup
	heapMB   float64 // live heap with the finished fleet still held
}

// runGeoFleet builds and runs one fleet, timing each boundary slice. With
// measureHeap it also reads the live heap while the finished fleet is
// still held.
func runGeoFleet(seed int64, workers int, tr *tracer, measureHeap bool) (geoResult, error) {
	f, err := experiments.BuildSimParFleet(geoSites, geoShards, workers, seed)
	if err != nil {
		return geoResult{}, fmt.Errorf("geo-ring: build fleet: %w", err)
	}

	var res geoResult
	var prev time.Time
	var prevServed int64
	var prevSum float64
	f.Co.Every(geoSlice, func() bool {
		now := time.Now()
		at := f.Co.Now()
		if !prev.IsZero() && at > geoWarmup {
			d := now.Sub(prev)
			res.slices.add(d)
			res.hostS += d.Seconds()
			tr.record("simpar.slice", prev, now)
		}
		prev = now
		// Windowed trading latency from the fleet's cumulative mean and
		// served count (statistics reset at the warmup boundary).
		row := f.Row(geoSites, geoShards)
		sum := row.LocalMeanUs * float64(row.LocalServed)
		if at > geoWarmup+geoSlice && row.LocalServed > prevServed {
			if (sum-prevSum)/float64(row.LocalServed-prevServed) <= geoSLOUs {
				res.okSlices++
			}
		}
		prevServed, prevSum = row.LocalServed, sum
		return true
	})
	sp := tr.begin("geo.fleet")
	f.Run(experiments.Options{Seed: seed, Warmup: geoWarmup, Duration: geoDuration})
	tr.end(sp)
	res.row = f.Row(geoSites, geoShards)
	if measureHeap {
		res.heapMB = liveHeapMB()
		runtime.KeepAlive(f)
	}
	return res, nil
}

// runGeoRing drives one geo-ring run.
func runGeoRing(seed int64, budget time.Duration, tr *tracer) (*report, error) {
	rep := newReport()
	workers := maxWorkers()
	setup, err := setupMedian(func() error {
		_, err := experiments.BuildSimParFleet(geoSites, geoShards, workers, seed)
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("geo-ring: build fleet: %w", err)
	}
	rep.e2e["setup_s"] = setup

	root := tr.begin("run")
	gc0 := readGC()

	var slices timings
	var served, events, windows, bounds, msgs int64
	var hostS float64
	var first geoResult
	start := time.Now()
	fleets := 0
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		res, err := runGeoFleet(geoSeed(seed, i), workers, tr, i == 0)
		if err != nil {
			return nil, err
		}
		fleets++
		rep.attempted += res.slices.n()
		if i == 0 {
			first = res
		}
		if res.row.LocalServed <= 0 || res.row.ReplServed <= 0 || res.row.Windows == 0 {
			rep.fail("fleet %d (seed %d) made no progress: %+v", i, geoSeed(seed, i), res.row)
		}
		slices.ns = append(slices.ns, res.slices.ns...)
		hostS += res.hostS
		served += res.row.LocalServed + res.row.ReplServed
		events += int64(res.row.Steps)
		windows += int64(res.row.Windows)
		bounds += int64(res.row.Boundaries)
		msgs += int64(res.row.Messages)
	}
	tr.end(root)
	rep.fingerprint = first.row.FP
	rep.checkFingerprint("geo-ring", seed)

	rep.steps = slices
	rep.stepMetrics()
	rep.e2e["goodput_per_s"] = float64(served) / hostS
	// The first fleet is the checked prefix: its windows are a function of
	// the seed alone.
	measured := first.slices.n() - 1
	if measured > 0 {
		rep.e2e["ls_ok_pct"] = 100 * float64(first.okSlices) / float64(measured)
	}
	rep.e2e["heap_mb"] = first.heapMB
	simS := float64(fleets) * (geoWarmup + geoDuration).Seconds()
	rep.note("geo-ring: %d fleets, %.3f sim-s, first fleet local mean %.1fus, %d/%d windows within %.0fus",
		fleets, simS, first.row.LocalMeanUs, first.okSlices, measured, geoSLOUs)

	if tr != nil {
		// Whole-run counts (warmup included) against the whole run's
		// host time.
		runS := time.Since(start).Seconds()
		rep.layer["sim.events"] = float64(events)
		rep.layer["sim.events_per_sim_ms"] = float64(events) / (simS * 1e3)
		rep.layer["sim.ns_per_event"] = runS * 1e9 / float64(events)
		rep.layer["sim.sim_s_per_s"] = simS / runS
		rep.layer["simpar.windows"] = float64(windows)
		rep.layer["simpar.boundaries"] = float64(bounds)
		rep.layer["simpar.msgs"] = float64(msgs)
		rep.layer["simpar.msgs_per_window"] = float64(msgs) / float64(windows)
		rep.layer["simpar.events_per_window"] = float64(events) / float64(windows)
		rep.layer["simpar.ns_per_window"] = runS * 1e9 / float64(windows)
		rep.layer["outcome.local_mean_us"] = first.row.LocalMeanUs
		rep.gcLayers(gc0)
	}
	return rep, nil
}
