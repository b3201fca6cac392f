package xen

import (
	"fmt"

	"resex/internal/sim"
)

// PCPU is one physical CPU with its pinned VCPUs and the per-CPU scheduler
// state.
type PCPU struct {
	hv         *Hypervisor
	id         int
	vcpus      []*VCPU
	current    *VCPU
	grantEnd   sim.Time
	grantTimer sim.Timer
	retryTimer sim.Timer
	endGrantFn func()   // bound endGrant, allocated once (grants are per-tick hot)
	busy       sim.Time // cumulative granted-and-used time
}

// ID returns the PCPU index.
func (c *PCPU) ID() int { return c.id }

// Current returns the VCPU holding the active grant, or nil when idle.
func (c *PCPU) Current() *VCPU { return c.current }

// BusyTime returns the cumulative time VCPUs actually consumed on this CPU.
func (c *PCPU) BusyTime() sim.Time { return c.busy }

// maybeReschedule triggers a scheduling decision if the CPU is idle; if a
// grant is active the decision waits for the grant to expire (tick-based
// preemption).
func (c *PCPU) maybeReschedule() {
	if c.current == nil {
		c.reschedule()
	}
}

// pick selects the runnable VCPU with budget remaining that has the
// smallest weight-normalized window consumption (stride-style proportional
// share). Ties break by pin order for determinism.
func (c *PCPU) pick() *VCPU {
	var best *VCPU
	var bestKey float64
	for _, v := range c.vcpus {
		if !v.demand() || v.budget <= 0 {
			continue
		}
		key := float64(v.windowUsed) / float64(v.dom.weight)
		if best == nil || key < bestKey {
			best, bestKey = v, key
		}
	}
	return best
}

// reschedule issues a new grant. Must only run when no grant is active.
// Window budgets are refreshed lazily here rather than by a global periodic
// tick, so an idle simulation generates no events.
func (c *PCPU) reschedule() {
	if c.current != nil {
		return
	}
	now := c.hv.eng.Now()
	window := now / c.hv.cfg.CapPeriod
	for _, v := range c.vcpus {
		v.refresh(window)
	}
	v := c.pick()
	windowEnd := (window + 1) * c.hv.cfg.CapPeriod
	if v == nil {
		// Idle. If a capped-out VCPU still has demand, retry at the next
		// window boundary, when its budget refills.
		for _, w := range c.vcpus {
			if w.demand() {
				c.scheduleRetry(windowEnd)
				break
			}
		}
		return
	}
	g := c.hv.cfg.Tick
	if v.budget < g {
		g = v.budget
	}
	if rem := windowEnd - now; rem < g {
		g = rem
	}
	// Pre-charge the grant against the window budget at issuance. This is
	// what makes caps exact: a grant is only ever issued out of remaining
	// budget, so a capped VCPU can never run past its share no matter how
	// scheduler and guest events interleave. Unused grant time is refunded
	// by yieldGrant.
	v.budget -= g
	v.windowUsed += g
	c.current = v
	c.grantEnd = now + g
	v.running = true
	if c.endGrantFn == nil {
		c.endGrantFn = c.endGrant
	}
	c.grantTimer = c.hv.eng.After(g, c.endGrantFn)
	v.grantSig.Broadcast()
}

// scheduleRetry arms (at most one) wake-up for an idle CPU whose remaining
// demand is capped out until the given window boundary. A fired retry timer
// reports inactive on its own, so no reset bookkeeping is needed.
func (c *PCPU) scheduleRetry(at sim.Time) {
	if c.retryTimer.Active() {
		return
	}
	c.retryTimer = c.hv.eng.Schedule(at, c.maybeReschedule)
}

// endGrant expires the active grant and makes the next decision.
func (c *PCPU) endGrant() {
	v := c.current
	if v == nil {
		return
	}
	v.running = false
	c.current = nil
	c.reschedule()
}

// yieldGrant is called by a VCPU that stopped having demand mid-grant: the
// unused remainder is refunded to its budget and the CPU rescheduled.
func (c *PCPU) yieldGrant(v *VCPU) {
	if c.current != v {
		return
	}
	if rem := c.grantEnd - c.hv.eng.Now(); rem > 0 {
		v.budget += rem
		v.windowUsed -= rem
	}
	c.grantTimer.Stop()
	v.running = false
	c.current = nil
	c.reschedule()
}

// VCPU is a virtual CPU pinned to one PCPU. Guest code runs on it through
// Use (consume CPU time) and SpinWait (poll while consuming CPU); both make
// progress only while the scheduler has granted the VCPU its PCPU, so a
// capped domain's compute — and therefore its ability to issue I/O — is
// throttled exactly as in Xen.
type VCPU struct {
	dom        *Domain
	pcpu       *PCPU
	id         int
	window     sim.Time // cap-window index the budget belongs to
	budget     sim.Time // remaining runnable time this window
	windowUsed sim.Time
	consumed   sim.Time
	running    bool
	grantSig   *sim.Signal
	owner      *sim.Proc
	queue      []*sim.Proc // FIFO of guest threads waiting for the VCPU
	mutexSig   *sim.Signal
	yieldFn    func() // yieldIfIdle, bound once so release allocates nothing
}

// Domain returns the owning domain.
func (v *VCPU) Domain() *Domain { return v.dom }

// PCPU returns the physical CPU the VCPU is pinned to.
func (v *VCPU) PCPU() *PCPU { return v.pcpu }

// ID returns the VCPU index within its domain.
func (v *VCPU) ID() int { return v.id }

// ConsumedTime returns cumulative CPU time consumed by this VCPU.
func (v *VCPU) ConsumedTime() sim.Time { return v.consumed }

// String identifies the VCPU in diagnostics.
func (v *VCPU) String() string { return fmt.Sprintf("%s/v%d", v.dom.name, v.id) }

// WindowBudget returns the VCPU's remaining runnable time in the current cap
// window. Grants are pre-charged at issuance, so this is never negative —
// that zero bound is the "documented bound" the invariant auditor checks.
func (v *VCPU) WindowBudget() sim.Time { return v.budget }

// WindowUsed returns the time already debited against the current cap
// window (issued grants, minus yield refunds).
func (v *VCPU) WindowUsed() sim.Time { return v.windowUsed }

// WindowQuota returns the per-window budget the current domain cap implies
// (the full CapPeriod when uncapped).
func (v *VCPU) WindowQuota() sim.Time { return v.capShare() }

// refresh rolls the VCPU's budget forward if a new cap window has begun.
func (v *VCPU) refresh(window sim.Time) {
	if window != v.window {
		v.window = window
		v.budget = v.capShare()
		v.windowUsed = 0
	}
}

// capShare returns the per-window budget implied by the domain cap.
func (v *VCPU) capShare() sim.Time {
	if v.dom.cap <= 0 {
		return v.pcpu.hv.cfg.CapPeriod
	}
	return v.pcpu.hv.cfg.CapPeriod * sim.Time(v.dom.cap) / 100
}

// demand reports whether any guest thread currently wants the VCPU.
func (v *VCPU) demand() bool { return v.owner != nil || len(v.queue) > 0 }

// acquire serializes guest threads (procs) onto the VCPU with strict FIFO
// handoff: release assigns ownership to the head of the queue directly, so
// a thread that releases and immediately re-acquires (the per-request serve
// loop) cannot starve a waiting thread (e.g. the monitoring agent).
func (v *VCPU) acquire(p *sim.Proc) {
	if v.owner == nil && len(v.queue) == 0 {
		v.owner = p
		v.pcpu.maybeReschedule()
		return
	}
	v.queue = append(v.queue, p)
	defer func() {
		// Kill-unwind: drop out of the queue, or give back ownership that
		// was assigned while this thread was dying.
		if r := recover(); r != nil {
			if v.owner == p {
				v.release()
			} else {
				v.dropQueued(p)
			}
			panic(r)
		}
	}()
	for v.owner != p {
		v.mutexSig.Wait(p)
	}
	v.pcpu.maybeReschedule()
}

// dropQueued removes p from the wait queue.
func (v *VCPU) dropQueued(p *sim.Proc) {
	for i, q := range v.queue {
		if q == p {
			v.queue = append(v.queue[:i], v.queue[i+1:]...)
			return
		}
	}
}

// release hands the VCPU to the next queued guest thread, if any.
//
// When no thread is waiting the grant is NOT surrendered immediately: a
// guest thread that finishes one Use and immediately starts the next (the
// per-request loop of every real application) never blocked from the
// guest's point of view, so the VCPU must stay scheduled. The yield check
// runs after all same-instant events settle; only a VCPU that is then still
// idle gives its grant (and the unused budget) back. Without this grace, a
// scheduler decision would fire between every pair of back-to-back Use
// calls and proportional weights would degenerate to strict alternation.
func (v *VCPU) release() {
	if len(v.queue) > 0 {
		v.owner = v.queue[0]
		v.queue = v.queue[1:]
		v.mutexSig.Broadcast() // queued threads re-check ownership
		return
	}
	v.owner = nil
	if v.pcpu.current == v {
		v.pcpu.hv.eng.After(0, v.yieldFn)
	}
}

// yieldIfIdle is release's deferred yield check.
func (v *VCPU) yieldIfIdle() {
	if !v.demand() {
		v.pcpu.yieldGrant(v)
	}
}

// waitGrant parks p until the VCPU holds an active grant, returning the
// remaining grant time (> 0).
func (v *VCPU) waitGrant(p *sim.Proc) sim.Time {
	eng := v.pcpu.hv.eng
	for {
		if v.running && v.pcpu.current == v {
			if rem := v.pcpu.grantEnd - eng.Now(); rem > 0 {
				return rem
			}
		}
		v.grantSig.Wait(p)
	}
}

// charge accounts d of actual execution for XenStat-style counters. The
// window budget was already debited when the grant was issued.
func (v *VCPU) charge(d sim.Time) {
	if d <= 0 {
		return
	}
	v.consumed += d
	v.dom.consumed += d
	v.pcpu.busy += d
}

// Use consumes d of CPU time on behalf of p: the call returns after the
// scheduler has granted the VCPU a total of d of execution, however long
// that takes in virtual time (a domain capped at C% advances CPU work at
// C% of real rate).
func (v *VCPU) Use(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	v.acquire(p)
	defer v.release()
	v.useLocked(p, d)
}

// useLocked is Use without the acquire/release, for callers composing
// several CPU operations under one acquisition.
func (v *VCPU) useLocked(p *sim.Proc, d sim.Time) {
	for d > 0 {
		g := v.waitGrant(p)
		run := d
		if g < run {
			run = g
		}
		p.Sleep(run)
		v.charge(run)
		d -= run
	}
}

// SpinWait polls cond, consuming CPU while scheduled, until cond reports
// true; sig must be broadcast whenever cond may have changed (a CQ's
// completion signal). It returns (busy, elapsed): CPU actually burned
// polling and wall virtual time from call to return. This models a guest
// busy-polling its completion queue: descheduled time (cap windows closed)
// elapses without consuming budget, which is why polling latency rises when
// a VM is capped.
func (v *VCPU) SpinWait(p *sim.Proc, sig *sim.Signal, cond func() bool) (busy, elapsed sim.Time) {
	eng := v.pcpu.hv.eng
	start := eng.Now()
	v.acquire(p)
	defer v.release()
	for {
		if cond() {
			return busy, eng.Now() - start
		}
		g := v.waitGrant(p)
		if cond() {
			return busy, eng.Now() - start
		}
		t0 := eng.Now()
		p.WaitAny(sig, g)
		dt := eng.Now() - t0
		v.charge(dt)
		busy += dt
	}
}
