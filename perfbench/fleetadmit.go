package main

import (
	"fmt"
	"time"

	"resex/internal/exchange"
	"resex/internal/experiments"
	"resex/internal/resos"
	"resex/internal/schedshard"
	"resex/internal/sim"
)

// fleet-admit: admission waves into a 2000-host fleet held near 80% full,
// with the metering/repricing write path between waves.
const (
	admitHosts    = 2000
	admitPCPUs    = 31
	admitResident = 25 // initial VMs per host: 50,000 VMs, 80.6% of PCPUs
	admitShards   = 8
	// admitChecked is the wave after which the placement fingerprint and
	// quality are read. Every run reaches it.
	admitChecked = 100
	// largeBuffer is where a VM counts as a bulk interferer, matching
	// schedshard.InterferenceAware's default.
	largeBuffer = 256 << 10
)

// admitRequest is one generated arrival: a singleton (gang == 0) or a
// scale-set of gang members.
type admitRequest struct {
	spec schedshard.Spec
	vm   schedshard.VMInfo
	gang int
}

// admitVM builds a latency-sensitive 64 KB or bulk large-buffer VM.
func admitVM(name string, bulk bool) (schedshard.Spec, schedshard.VMInfo) {
	spec := schedshard.Spec{Name: name, LatencySensitive: true, BufferSize: experiments.BaseBuffer}
	rate := 2e6
	if bulk {
		spec = schedshard.Spec{Name: name, BufferSize: experiments.IntfBuffer}
		rate = 30e6
	}
	return spec, schedshard.VMInfo{Spec: spec, BytesPerSec: rate, MTUsPerSec: rate / 1024,
		BufferSize: spec.BufferSize}
}

// admitWave generates wave w's arrivals from the seed alone: 12–20
// singletons (¾ latency-sensitive, ¼ bulk) and 1–2 scale-sets of 4–16
// members.
func admitWave(seed int64, w int) []admitRequest {
	rng := sim.NewRand(seed*1_000_003 + int64(w)*7919 + 0x5eed)
	var out []admitRequest
	n := 12 + rng.Intn(9)
	for i := 0; i < n; i++ {
		spec, vm := admitVM(fmt.Sprintf("w%d-s%d", w, i), rng.Intn(4) == 3)
		out = append(out, admitRequest{spec: spec, vm: vm})
	}
	gangs := 1 + rng.Intn(2)
	for g := 0; g < gangs; g++ {
		spec, vm := admitVM(fmt.Sprintf("w%d-g%d", w, g), rng.Intn(4) == 3)
		out = append(out, admitRequest{spec: spec, vm: vm, gang: 4 + rng.Intn(13)})
	}
	return out
}

// bookBase is a holder's per-epoch grant: bulk VMs are granted more
// fabric.
func bookBase(vm schedshard.VMInfo) exchange.Vec {
	if vm.EffectiveBuffer() >= largeBuffer {
		return exchange.Vec{exchange.DimCPU: 1000, exchange.DimFabric: 4000}
	}
	return exchange.Vec{exchange.DimCPU: 1000, exchange.DimFabric: 500}
}

// admitFleet is the built system: the store, the scheduler, and one trade
// book per host (index = node-1).
type admitFleet struct {
	store *schedshard.Store
	sched *schedshard.Scheduler
	books []*exchange.Book
	// lsBound counts the latency-sensitive VMs the scheduler has bound;
	// lsExposed those of them whose host held a bulk VM right after the
	// wave that bound them committed.
	lsBound, lsExposed int
}

// buildAdmitFleet publishes the pre-filled fleet: every fourth host holds
// bulk VMs only, the rest latency-sensitive VMs only, so the fleet starts
// with no risky colocation and the quality metric measures what the
// scheduler does to it.
func buildAdmitFleet(seed int64, hosts, workers int) *admitFleet {
	f := &admitFleet{store: schedshard.NewStore(), books: make([]*exchange.Book, hosts)}
	view := make([]*schedshard.HostInfo, hosts)
	for i := range view {
		h := &schedshard.HostInfo{
			Node: i + 1, TotalPCPUs: admitPCPUs, FreePCPUs: admitPCPUs - admitResident,
			LinkBytesPerSec: 1e9, ResoHeadroom: 1,
			VMs: make([]schedshard.VMInfo, 0, admitResident),
		}
		bk := exchange.NewBook(exchange.BookConfig{})
		for j := 0; j < admitResident; j++ {
			_, vm := admitVM(fmt.Sprintf("init%d-%d", i+1, j), i%4 == 0)
			h.VMs = append(h.VMs, vm)
			h.IOCommitted += vm.BytesPerSec / h.LinkBytesPerSec
			bk.Join(vm.Spec.Name, bookBase(vm))
		}
		view[i] = h
		f.books[i] = bk
	}
	f.store.Publish(view)
	f.sched = schedshard.NewScheduler(f.store, schedshard.Config{
		Shards: admitShards, Workers: workers, Seed: seed,
		NewPipeline: schedshard.NewRatePipeline, AvoidConflicts: true,
	})
	return f
}

// admitProbe accumulates per-layer timings of traced runs.
type admitProbe struct {
	rounds, publish, close timings
	allocs                 uint64
	placed                 int
}

// admitStep runs one wave: enqueue, rounds until every member is bound or
// failed (timed as the step), then the write path. It returns the step
// duration, the whole wave's duration, and how many VMs it requested and
// bound.
func (f *admitFleet) admitStep(seed int64, w int, tr *tracer, p *admitProbe) (step, whole time.Duration, requested, bound int) {
	wave := admitWave(seed, w)
	for _, r := range wave {
		requested += max(r.gang, 1)
	}
	before := len(f.sched.Bound())
	root := tr.begin("wave")
	var m0 uint64
	if p != nil {
		m0 = mallocs()
	}
	t0 := time.Now()
	for _, r := range wave {
		if r.gang == 0 {
			sp := tr.begin("schedshard.enqueue")
			f.sched.Enqueue(r.spec, r.vm)
			tr.end(sp)
			continue
		}
		sp := tr.begin("schedshard.enqueue_gang")
		f.sched.EnqueueGang(r.spec, r.vm, r.gang)
		tr.end(sp)
	}
	for f.sched.PendingLen() > 0 {
		sp := tr.begin("schedshard.round")
		r0 := time.Now()
		f.sched.Round()
		if p != nil {
			p.rounds.add(time.Since(r0))
		}
		tr.end(sp)
	}
	step = time.Since(t0)
	bound = len(f.sched.Bound()) - before
	if p != nil {
		p.allocs += mallocs() - m0
		p.placed += bound
	}
	f.countExposure(f.sched.Bound()[before:])
	f.writePath(seed, w, bound, f.sched.Bound()[before:], tr, p)
	whole = time.Since(t0)
	tr.end(root)
	return step, whole, requested, bound
}

// writePath is the between-wave loop: book joins for the new VMs, as many
// seeded departures as the wave bound (holding the fleet's fill), one epoch of
// metered spend on every holder (20–120% of its grant, so books trade and
// prices sit off their floor and ceiling), settlement of every book, and the
// new quotes published into the fleet view.
func (f *admitFleet) writePath(seed int64, w, departures int, binds []schedshard.Bind, tr *tracer, p *admitProbe) {
	rng := sim.NewRand(seed*999_983 + int64(w)*104_729 + 0xde9a)
	snap := f.store.Snapshot()
	hosts := make([]*schedshard.HostInfo, len(snap.Hosts))
	for i, h := range snap.Hosts {
		c := *h
		hosts[i] = &c
	}

	sp := tr.begin("depart")
	for _, b := range binds {
		f.books[b.Node-1].Join(b.VM.Spec.Name, bookBase(b.VM))
	}
	for d := 0; d < departures; d++ {
		h := hosts[rng.Intn(len(hosts))]
		for len(h.VMs) == 0 {
			h = hosts[rng.Intn(len(hosts))]
		}
		j := rng.Intn(len(h.VMs))
		f.books[h.Node-1].Leave(h.VMs[j].Spec.Name)
		// Fresh backing array: the previous snapshot still shares the old.
		h.VMs = append(h.VMs[:j:j], h.VMs[j+1:]...)
		h.FreePCPUs++
		h.IOCommitted = 0
		for _, vm := range h.VMs {
			h.IOCommitted += vm.BytesPerSec / h.LinkBytesPerSec
		}
	}
	tr.end(sp)

	sp = tr.begin("exchange.spend")
	for _, bk := range f.books {
		for _, h := range bk.Holders() {
			for d := exchange.DimCPU; d <= exchange.DimFabric; d++ {
				amt := float64(h.Base(d)) * (0.2 + rng.Float64())
				bk.Spend(h, d, resos.Amount(amt))
			}
		}
	}
	tr.end(sp)

	sp = tr.begin("exchange.close_epoch")
	c0 := time.Now()
	for i, bk := range f.books {
		rep := bk.CloseEpoch()
		hosts[i].Prices[exchange.DimCPU] = rep.Price[exchange.DimCPU]
		hosts[i].Prices[exchange.DimFabric] = rep.Price[exchange.DimFabric]
	}
	if p != nil {
		p.close.add(time.Since(c0))
	}
	tr.end(sp)

	sp = tr.begin("schedshard.publish")
	p0 := time.Now()
	f.store.Publish(hosts)
	if p != nil {
		p.publish.add(time.Since(p0))
	}
	tr.end(sp)
}

// countExposure adds a wave's latency-sensitive binds to lsBound, and to
// lsExposed those that landed on a host holding a bulk VM.
func (f *admitFleet) countExposure(binds []schedshard.Bind) {
	snap := f.store.Snapshot()
	for _, b := range binds {
		if !b.VM.Spec.LatencySensitive {
			continue
		}
		f.lsBound++
		if hasBulk(snap.Host(b.Node)) {
			f.lsExposed++
		}
	}
}

// hasBulk reports whether a host runs a bulk (large-buffer) VM.
func hasBulk(h *schedshard.HostInfo) bool {
	for _, vm := range h.VMs {
		if vm.EffectiveBuffer() >= largeBuffer {
			return true
		}
	}
	return false
}

// colocPct is the share of resident latency-sensitive VMs that share a host
// with a bulk VM.
func colocPct(snap *schedshard.Snapshot) float64 {
	ls, exposed := 0, 0
	for _, h := range snap.Hosts {
		n := 0
		for _, vm := range h.VMs {
			if vm.Spec.LatencySensitive {
				n++
			}
		}
		ls += n
		if hasBulk(h) {
			exposed += n
		}
	}
	if ls == 0 {
		return 0
	}
	return 100 * float64(exposed) / float64(ls)
}

// checkHosts verifies every host's PCPU accounting.
func checkHosts(rep *report, snap *schedshard.Snapshot, when string) {
	for _, h := range snap.Hosts {
		if h.FreePCPUs < 0 || h.TotalPCPUs-h.FreePCPUs != len(h.VMs) {
			rep.fail("%s: host %d free %d total %d with %d VMs", when, h.Node,
				h.FreePCPUs, h.TotalPCPUs, len(h.VMs))
			return
		}
	}
}

// runFleetAdmit drives one fleet-admit run.
func runFleetAdmit(seed int64, budget time.Duration, tr *tracer) (*report, error) {
	rep := newReport()
	var f *admitFleet
	setup, _ := setupMedian(func() error {
		f = buildAdmitFleet(seed, admitHosts, maxWorkers())
		return nil
	}, nil)
	rep.e2e["setup_s"] = setup

	var probe *admitProbe
	if tr != nil {
		probe = &admitProbe{}
	}
	root := tr.begin("run")
	gc0 := readGC()
	var steps timings
	var loopS float64
	var coloc, lsOK, heapMB float64
	waves, bound, requested := 0, 0, 0
	var partial uint64
	start := time.Now()
	for w := 1; ; w++ {
		step, whole, req, b := f.admitStep(seed, w, tr, probe)
		steps.add(step)
		requested += req
		loopS += whole.Seconds()
		bound += b
		waves = w
		if g := f.sched.Gangs(); g.Partial != partial {
			rep.fail("wave %d: %d partially placed gangs", w, g.Partial-partial)
			partial = g.Partial
		}
		if w == admitChecked {
			rep.fingerprint = fmt.Sprintf("%016x", f.sched.BindFNV())
			coloc = colocPct(f.store.Snapshot())
			lsOK = 100 * float64(f.lsBound-f.lsExposed) / float64(f.lsBound)
			checkHosts(rep, f.store.Snapshot(), "checked wave")
			heapMB = liveHeapMB()
		}
		if w >= admitChecked && time.Since(start) >= budget {
			break
		}
	}
	tr.end(root)
	rep.checkFingerprint("fleet-admit", seed)
	checkHosts(rep, f.store.Snapshot(), "end of run")
	rep.attempted = requested
	if failed := len(f.sched.Failed()); failed > 0 {
		rep.fail("%d VMs could not be placed", failed)
		rep.failed += failed - 1 // each unplaced VM is a failed operation
	}

	rep.steps = steps
	rep.stepMetrics()
	rep.e2e["goodput_per_s"] = float64(bound) / loopS
	rep.e2e["ls_ok_pct"] = lsOK
	rep.e2e["heap_mb"] = heapMB
	rep.note("fleet-admit: %d waves, %d VMs bound, %d resident; at wave %d: %.3f%% of LS placements clear of bulk VMs, resident coloc %.3f%%",
		waves, bound, residents(f.store.Snapshot()), admitChecked, lsOK, coloc)

	if probe != nil {
		sc := f.sched
		rep.layer["schedshard.round_p50_ms"] = probe.rounds.percentile(50)
		rep.layer["schedshard.round_p99_ms"] = probe.rounds.percentile(tailPercentile(probe.rounds.n()))
		rep.layer["schedshard.publish_ms"] = probe.publish.percentile(50)
		rep.layer["schedshard.rounds_per_wave"] = float64(sc.Rounds()) / float64(waves)
		rep.layer["schedshard.conflicts"] = float64(sc.Conflicts())
		commits := float64(f.store.Commits())
		rep.layer["schedshard.commit_ratio"] = commits / (commits + float64(f.store.Conflicts()))
		rep.layer["schedshard.retries"] = float64(sc.Retries())
		g := sc.Gangs()
		rep.layer["schedshard.gangs_placed"] = float64(g.Placed)
		rep.layer["schedshard.gangs_failed"] = float64(g.Failed)
		rep.layer["schedshard.gangs_partial"] = float64(g.Partial)
		rep.layer["schedshard.ns_per_placement"] = probe.rounds.total() * 1e9 / float64(probe.placed)
		rep.layer["schedshard.allocs_per_placement"] = float64(probe.allocs) / float64(probe.placed)
		var trades int64
		var price float64
		for _, bk := range f.books {
			trades += bk.TradeCount()
			price += (bk.Board().Price(exchange.DimCPU) + bk.Board().Price(exchange.DimFabric)) / 2
		}
		rep.layer["exchange.trades"] = float64(trades)
		rep.layer["exchange.mean_price"] = price / float64(len(f.books))
		rep.layer["exchange.close_epoch_ms"] = probe.close.percentile(50)
		rep.layer["outcome.coloc_pct"] = coloc
		rep.gcLayers(gc0)
	}
	return rep, nil
}

func residents(snap *schedshard.Snapshot) int {
	n := 0
	for _, h := range snap.Hosts {
		n += len(h.VMs)
	}
	return n
}
