package sim

// periodic is a recurring timer created with Every. Periodic ticks dominate
// real simulations (the 1 ms ResEx charging interval, 1 s epochs, monitor
// polls), so they live outside the event heap in a dedicated wheel: firing a
// tick advances nextAt and reassigns seq in place — no heap push/pop, no
// allocation, ever.
type periodic struct {
	eng     *Engine
	period  Time
	nextAt  Time
	seq     uint64
	fn      func()
	stopped bool
	firing  bool // true while fn runs, so Stop-from-inside-the-tick is safe
}

// wheelMin returns the index of the earliest pending periodic by (nextAt,
// seq), or -1 when the wheel is empty. The index is cached: only Every,
// wheelRemove and a tick's in-place reschedule change the wheel, and each of
// them invalidates the cache, so the run loop's per-event peek and Step pay
// one comparison instead of a scan. A simulation keeps one ticker per
// tenant, VCPU and monitor — dozens to hundreds — and ticks are rare next to
// one-shot events, so rescanning after each change costs far less than
// maintaining an ordered structure would.
func (e *Engine) wheelMin() int {
	if e.wmin < 0 {
		e.wmin = e.scanWheelMin()
	}
	return e.wmin
}

// scanWheelMin finds the earliest pending periodic by a linear scan.
func (e *Engine) scanWheelMin() int {
	best := -1
	for i, p := range e.wheel {
		if best < 0 || p.nextAt < e.wheel[best].nextAt ||
			(p.nextAt == e.wheel[best].nextAt && p.seq < e.wheel[best].seq) {
			best = i
		}
	}
	return best
}

// wheelRemove unlinks p. Order within the slice is irrelevant: wheelMin
// compares (nextAt, seq), so swap-removal cannot perturb determinism.
func (e *Engine) wheelRemove(p *periodic) {
	for i, q := range e.wheel {
		if q == p {
			n := len(e.wheel) - 1
			e.wheel[i] = e.wheel[n]
			e.wheel[n] = nil
			e.wheel = e.wheel[:n]
			e.wmin = -1
			return
		}
	}
}

// fireWheel executes the pending tick of e.wheel[i]: run the callback, then
// reschedule in place unless the timer stopped itself. The seq for the next
// occurrence is assigned after fn runs — exactly where the old
// heap-rescheduling implementation assigned it — so event ordering, and with
// it every seeded experiment output, is unchanged byte for byte. The cached
// minimum is invalidated after fn returns, which also covers a tick that
// called Every or stopped another timer.
func (e *Engine) fireWheel(i int) {
	p := e.wheel[i]
	e.now = p.nextAt
	e.stepped++
	if e.stepHook != nil && e.stepped&e.hookMask == 0 {
		e.stepHook(p.nextAt, p.seq)
	}
	p.firing = true
	p.fn()
	p.firing = false
	e.wmin = -1
	if p.stopped {
		e.wheelRemove(p)
		return
	}
	e.seq++
	p.seq = e.seq
	p.nextAt += p.period
}
