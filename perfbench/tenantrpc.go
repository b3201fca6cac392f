package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"resex/internal/daemon"
	"resex/internal/exchange"
	"resex/internal/experiments"
	"resex/internal/fabric"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/stats"
)

// tenant-rpc: one resexd session stepped in 1 ms quanta by a single client.
const (
	rpcHosts   = 4
	rpcQuantum = sim.Millisecond
	// rpcOpenRate is each open tenant's Poisson arrival rate (req/s).
	rpcOpenRate = 2000
	// rpcCapture is the quantum boundary at which the mid-run snapshot is
	// taken; the tenants' statistics are reset right after it, so the
	// measured outcomes start there.
	rpcCapture = 100
	// rpcChecked is the quantum at which the outcome is fingerprinted and
	// the simulated metrics are read. Every run reaches it; 2.4 simulated
	// seconds of measured outcome keep their spread over seeds near 2%.
	rpcChecked = 2500
	// rpcHeapEvery is the period, in quanta, of the live-heap readings
	// between the capture and the checked point. heap_mb is the lowest
	// reading, the resident floor: a single reading swings between about
	// 7 and 24 MiB with the RDMA read payloads in flight at that instant.
	rpcHeapEvery = 100
	// rpcMaxAdds bounds live tenant additions: a stopped tenant keeps its
	// VMs, and each worker host has 7 guest PCPUs for its 4 boot tenants
	// and 3 more.
	rpcMaxAdds = 12
	// rpcHorizon bounds the generated command schedule (quanta).
	rpcHorizon = 100000
)

// rpcInputs is everything the seed generates for one tenant-rpc run: the
// session's boot configuration and the control commands, by quantum.
type rpcInputs struct {
	cfg  daemon.Config
	cmds map[int][]daemon.Command
}

// genTenantRPC builds the tenant mix and the live command schedule. Tenants
// land on worker hosts round-robin by boot order, so the boot list
// interleaves classes to put two latency, one open and one bulk tenant on
// every host. Live churn replaces like with like: each added tenant is
// later matched by the removal of a running tenant of its class on its
// host, so the seed varies which tenants run and when, not how much load
// each host carries.
func genTenantRPC(seed int64) rpcInputs {
	rng := sim.NewRand(seed ^ 0x7e2a11c)
	var tenants []daemon.TenantConfig
	// running[host][class] lists the removable tenants in boot order.
	running := make([]map[string][]string, rpcHosts)
	for h := range running {
		running[h] = make(map[string][]string)
	}
	boot := func(class string) {
		tc := daemon.TenantConfig{Name: fmt.Sprintf("%s%d", class, len(tenants)), Class: class}
		if class == "open" {
			tc.Rate = rpcOpenRate
		}
		if class != "bulk" {
			h := len(tenants) % rpcHosts
			running[h][class] = append(running[h][class], tc.Name)
		}
		tenants = append(tenants, tc)
	}
	for _, class := range []string{"latency", "open", "bulk", "latency"} {
		for h := 0; h < rpcHosts; h++ {
			boot(class)
		}
	}

	in := rpcInputs{
		cfg: daemon.Config{
			Seed: seed, Hosts: rpcHosts, Policy: "fungible",
			QuantumNs: int64(rpcQuantum), Tenants: tenants,
		},
		cmds: make(map[int][]daemon.Command),
	}
	at := func(q int, c daemon.Command) { in.cmds[q] = append(in.cmds[q], c) }
	jit := func() int { return rng.Intn(10) }
	adds := 0
	// replace adds a tenant at qAdd and removes a running tenant of the
	// same class from the same host at qRemove.
	replace := func(qAdd, qRemove int) {
		h := (len(tenants) + adds) % rpcHosts
		class, rate := "latency", 0.0
		if rng.Intn(2) == 1 {
			class, rate = "open", rpcOpenRate
		}
		name := fmt.Sprintf("live%d", adds)
		adds++
		at(qAdd, daemon.Command{Cmd: "add-tenant", Name: name, Class: class, Rate: rate})
		pool := running[h][class]
		i := rng.Intn(len(pool))
		at(qRemove, daemon.Command{Cmd: "remove-tenant", Name: pool[i]})
		running[h][class] = append(append(pool[:i:i], pool[i+1:]...), name)
	}

	// Before the snapshot: a replacement and a flip to IOShares (flips land
	// at the next 250 ms manager epoch).
	replace(20+jit(), 60+jit())
	at(30+jit(), daemon.Command{Cmd: "policy", Name: "ioshares"})
	for q := rpcCapture + 20; adds < rpcMaxAdds; q += 80 {
		replace(q+jit(), q+40+jit())
	}
	policies := []string{"fungible", "ioshares"}
	for k, q := 0, 280; q < rpcHorizon; k, q = k+1, q+250 {
		at(q+jit(), daemon.Command{Cmd: "policy", Name: policies[k%2]})
	}
	return in
}

// rpcDigest fingerprints a session's outcome: clock, event count, every
// tenant's counters, latency sketch and SLO attainment, and every book's
// trade count.
func rpcDigest(s *daemon.Session) uint64 {
	var b []byte
	word := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	eng := s.Workload().TB.Eng
	word(uint64(eng.Now()))
	word(eng.Steps())
	for _, t := range s.Workload().Tenants() {
		st := t.Stats()
		b = append(b, t.Spec.Name...)
		word(uint64(len(t.Spec.Name)))
		for _, x := range []int64{st.Arrivals, st.Shed, st.Issued, st.Completed,
			int64(st.Queued), int64(st.Inflight), t.Sketch().Count()} {
			word(uint64(x))
		}
		for _, x := range []float64{st.P50, st.P99, st.P999, st.AttainPct} {
			word(math.Float64bits(x))
		}
	}
	for _, bk := range s.Books() {
		word(uint64(bk.TradeCount()))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// rpcOutcome reads the simulated metrics: latency-sensitive tenants'
// merged sketch quantiles (µs), SLO attainment averaged over the SLO-backed
// tenants that completed requests, and the share of latency-sensitive
// requests that completed within rpcLSBoundUs.
func rpcOutcome(s *daemon.Session) (p50, p99, slo, within float64) {
	var merged *stats.QuantileSketch
	var att float64
	var n int
	for _, t := range s.Workload().Tenants() {
		if t.Spec.LatencySensitive {
			if merged == nil {
				merged = stats.NewQuantileSketch(t.Sketch().Alpha())
			}
			merged.Merge(t.Sketch())
		}
		if t.Spec.SLO.Constrained() && t.Stats().Completed > 0 {
			att += t.Attainment()
			n++
		}
	}
	if merged != nil {
		p50, p99 = merged.Quantile(0.5), merged.Quantile(0.99)
		within = 100 * shareWithin(merged, rpcLSBoundUs)
	}
	if n > 0 {
		slo = att / float64(n)
	}
	return p50, p99, slo, within
}

// rpcLSBoundUs is the latency tenants' p99 objective: 1.5 × the paper's
// 240 µs base SLA (the daemon's latency class).
const rpcLSBoundUs = 1.5 * experiments.BaseSLAUs

// shareWithin returns the fraction of a sketch's observations at or below
// x, by bisection on the sketch's monotone quantile function.
func shareWithin(sk *stats.QuantileSketch, x float64) float64 {
	if sk.Count() == 0 || sk.Quantile(0) > x {
		return 0
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if sk.Quantile(mid) <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// rpcProbe samples per-layer state at quantum boundaries (traced runs).
type rpcProbe struct {
	quanta      int
	pendingMax  int
	queuedMax   int
	cappedSum   int
	capChanges  int
	intervals   int64
	lastCap     map[*resex.ManagedVM]float64
	applyTimes  timings
	captureUs   float64
	replaySteps uint64
}

func (p *rpcProbe) sample(s *daemon.Session) {
	p.quanta++
	if n := s.Workload().TB.Eng.Pending(); n > p.pendingMax {
		p.pendingMax = n
	}
	q := 0
	for _, t := range s.Workload().Tenants() {
		q += t.Stats().Queued
	}
	if q > p.queuedMax {
		p.queuedMax = q
	}
	for _, m := range s.Workload().Mgrs {
		for _, vm := range m.VMs() {
			c := vm.Cap()
			if c < 100 {
				p.cappedSum++
			}
			if prev, ok := p.lastCap[vm]; ok && prev != c {
				p.capChanges++
			}
			p.lastCap[vm] = c
		}
	}
}

// runTenantRPC drives one tenant-rpc run.
func runTenantRPC(seed int64, budget time.Duration, tr *tracer) (*report, error) {
	in := genTenantRPC(seed)
	rep := newReport()

	// Set-up: build the session several times and keep the last.
	var s *daemon.Session
	setup, err := setupMedian(func() (err error) {
		s, err = daemon.New(in.cfg)
		return err
	}, func() { s.Shutdown() })
	if err != nil {
		return nil, fmt.Errorf("tenant-rpc: new session: %w", err)
	}
	defer s.Shutdown()
	rep.e2e["setup_s"] = setup

	var probe *rpcProbe
	if tr != nil {
		probe = &rpcProbe{lastCap: make(map[*resex.ManagedVM]float64)}
		for _, m := range s.Workload().Mgrs {
			m.Observe(func(*resex.IntervalData) { probe.intervals++ })
		}
	}
	root := tr.begin("run")
	gc0 := readGC()
	eng := s.Workload().TB.Eng

	var bundle *snapshot.Bundle
	var captureDigest, checkedDigest uint64
	var p50, p99, slo, within float64
	var heaps []float64
	heapRead := false
	var steps timings
	var hostS float64 // host seconds of every step after the capture
	var stepsAtWarm uint64
	var simAtWarm sim.Time
	start := time.Now()
	q := 0
	for {
		q++
		for _, c := range in.cmds[q] {
			rep.attempted++
			sp := tr.begin("daemon.apply")
			t0 := time.Now()
			err := s.Apply(c)
			if probe != nil {
				probe.applyTimes.add(time.Since(t0))
			}
			tr.end(sp)
			if err != nil {
				rep.fail("apply %s %s at quantum %d: %v", c.Cmd, c.Name, q, err)
			}
		}
		rep.attempted++
		sp := tr.begin("daemon.step")
		t0 := time.Now()
		s.Step()
		d := time.Since(t0)
		tr.end(sp)
		// The step after a heap reading runs behind a forced collection
		// and is not timed.
		if q > rpcCapture {
			hostS += d.Seconds()
			if !heapRead {
				steps.add(d)
			}
		}
		heapRead = false
		if probe != nil && q > rpcCapture {
			probe.sample(s)
		}
		switch q {
		case rpcCapture:
			sp := tr.begin("snapshot.capture")
			t0 := time.Now()
			bundle = s.Snapshot()
			if probe != nil {
				probe.captureUs = float64(time.Since(t0).Nanoseconds()) / 1e3
			}
			tr.end(sp)
			captureDigest = rpcDigest(s)
			for _, t := range s.Workload().Tenants() {
				t.ResetStats()
			}
			stepsAtWarm, simAtWarm = eng.Steps(), eng.Now()
			start = time.Now()
		case rpcChecked:
			checkedDigest = rpcDigest(s)
			p50, p99, slo, within = rpcOutcome(s)
		}
		if q > rpcCapture && q <= rpcChecked && q%rpcHeapEvery == 0 {
			heaps = append(heaps, liveHeapMB())
			heapRead = true
		}
		if q >= rpcChecked && time.Since(start) >= budget {
			break
		}
	}
	tr.end(root)
	rep.fingerprint = fmt.Sprintf("%016x", checkedDigest)
	rep.checkFingerprint("tenant-rpc", seed)

	// Verified crash-restore of the mid-run snapshot through the wire
	// format.
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, bundle); err != nil {
		return nil, fmt.Errorf("tenant-rpc: encode snapshot: %w", err)
	}
	wireBytes := buf.Len()
	decoded, err := snapshot.Decode(&buf)
	if err != nil {
		return nil, fmt.Errorf("tenant-rpc: decode snapshot: %w", err)
	}
	rep.attempted++
	sp := tr.begin("daemon.restore")
	t0 := time.Now()
	restored, err := daemon.Restore(decoded)
	restoreS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		rep.fail("restore: %v", err)
	} else {
		if got := rpcDigest(restored); got != captureDigest {
			rep.fail("restored digest %016x, captured %016x", got, captureDigest)
		}
		if probe != nil {
			probe.replaySteps = restored.Workload().TB.Eng.Steps()
		}
		restored.Shutdown()
	}

	// End-to-end metrics.
	var completed int64
	for _, t := range s.Workload().Tenants() {
		completed += t.Stats().Completed
	}
	rep.steps = steps
	rep.stepMetrics()
	rep.e2e["goodput_per_s"] = float64(completed) / hostS
	rep.e2e["ls_ok_pct"] = within
	rep.e2e["heap_mb"] = slices.Min(heaps)
	rep.note("tenant-rpc: %d quanta (%.3f sim-s), %d timed, restore %.3fs, ls p50 %.1fus p99 %.1fus, slo %.2f%%, within %.2f%%",
		q, eng.Now().Seconds(), steps.n(), restoreS, p50, p99, slo, within)

	if probe != nil {
		rpcLayers(rep, s, probe, eng.Steps()-stepsAtWarm, (eng.Now() - simAtWarm).Seconds(), hostS)
		rep.layer["outcome.ls_p50_us"] = p50
		rep.layer["outcome.ls_p99_us"] = p99
		rep.layer["outcome.slo_pct"] = slo
		rep.layer["daemon.apply_us"] = probe.applyTimes.percentile(50) * 1e3
		rep.layer["daemon.step_ms"] = steps.percentile(50)
		rep.layer["snapshot.capture_us"] = probe.captureUs
		rep.layer["snapshot.bytes"] = float64(wireBytes)
		rep.layer["snapshot.replay_events"] = float64(probe.replaySteps)
		rep.layer["snapshot.restore_s"] = restoreS
		rep.gcLayers(gc0)
	}
	return rep, nil
}

// rpcLayers fills the data-path layer metrics from the session's public
// accessors.
func rpcLayers(rep *report, s *daemon.Session, p *rpcProbe, events uint64, simS, hostS float64) {
	wl := s.Workload()
	eng := wl.TB.Eng
	rep.layer["sim.events"] = float64(events)
	rep.layer["sim.events_per_sim_ms"] = float64(events) / (simS * 1e3)
	rep.layer["sim.ns_per_event"] = hostS * 1e9 / float64(events)
	rep.layer["sim.pending_max"] = float64(p.pendingMax)
	rep.layer["sim.sim_s_per_s"] = simS / hostS

	var arr, iss, comp, shed int64
	for _, t := range wl.Tenants() {
		st := t.Stats()
		arr += st.Arrivals
		iss += st.Issued
		comp += st.Completed
		shed += st.Shed
	}
	rep.layer["workload.arrivals"] = float64(arr)
	rep.layer["workload.issued"] = float64(iss)
	rep.layer["workload.completed"] = float64(comp)
	rep.layer["workload.shed"] = float64(shed)
	rep.layer["workload.queued_max"] = float64(p.queuedMax)
	rep.layer["workload.completed_per_host_s"] = float64(comp) / hostS

	hosts := append(append(wl.Workers[:0:0], wl.Workers...), wl.Client)
	var msgs, byts, overruns, stalls, packets int64
	var busy sim.Time
	links, maxQ := 0, 0
	for _, h := range hosts {
		msgs += h.HCA.MessagesSent()
		byts += h.HCA.BytesSent()
		for _, pd := range h.HCA.PDs() {
			for _, cq := range pd.CQs() {
				overruns += cq.Overruns()
				stalls += cq.StallEpisodes()
			}
		}
		for _, st := range []fabric.LinkStats{h.Uplink.Stats(), h.Downlink.Stats()} {
			packets += st.Packets
			busy += st.BusyTime
			if st.MaxQueued > maxQ {
				maxQ = st.MaxQueued
			}
			links++
		}
	}
	rep.layer["hca.msgs_sent"] = float64(msgs)
	rep.layer["hca.bytes_sent"] = float64(byts)
	rep.layer["hca.cq_overruns"] = float64(overruns)
	rep.layer["hca.stall_episodes"] = float64(stalls)
	rep.layer["fabric.packets"] = float64(packets)
	rep.layer["fabric.max_queued"] = float64(maxQ)
	rep.layer["fabric.link_busy_pct"] = 100 * float64(busy) / (float64(links) * float64(eng.Now()))

	var pbusy sim.Time
	ncpu := 0
	for _, h := range wl.Workers {
		for i := 0; i < h.HV.NumPCPUs(); i++ {
			pbusy += h.HV.PCPU(i).BusyTime()
			ncpu++
		}
	}
	rep.layer["xen.pcpu_busy_pct"] = 100 * float64(pbusy) / (float64(ncpu) * float64(eng.Now()))
	rep.layer["xen.capped_vms"] = float64(p.cappedSum) / float64(p.quanta)
	rep.layer["resex.intervals"] = float64(p.intervals)
	rep.layer["resex.cap_changes"] = float64(p.capChanges)

	var trades int64
	var price float64
	books := s.Books()
	for _, bk := range books {
		trades += bk.TradeCount()
		price += (bk.Board().Price(exchange.DimCPU) + bk.Board().Price(exchange.DimFabric)) / 2
	}
	rep.layer["exchange.trades"] = float64(trades)
	if len(books) > 0 {
		rep.layer["exchange.mean_price"] = price / float64(len(books))
	}
}
