package fabric

import (
	"fmt"

	"resex/internal/sim"
)

// legacyLink replicates the closure-per-hop Link that predates the bound
// callbacks and in-flight FIFOs: every serialization end and every delivery
// schedules a fresh closure, flow queues reslice, and per-flow bytes live in
// a map. It exists only as the reference TestHopPathMatchesLegacy compares
// the production Link against.
type legacyLink struct {
	eng     *sim.Engine
	bps     float64
	prop    sim.Time
	disc    Discipline
	deliver func(*Packet)

	busy    bool
	fifo    []*Packet
	flows   map[uint32]*legacyFlowQueue
	ring    []*legacyFlowQueue
	rrNext  int
	queued  int
	perFlow map[uint32]int64
	stats   LinkStats
	wakeup  sim.Timer

	degrade float64
	down    bool
}

type legacyFlowQueue struct {
	id     uint32
	pkts   []*Packet
	limit  float64
	nextAt sim.Time
}

func newLegacyLink(eng *sim.Engine, bandwidth float64, prop sim.Time, disc Discipline, deliver func(*Packet)) *legacyLink {
	return &legacyLink{
		eng:     eng,
		bps:     bandwidth,
		prop:    prop,
		disc:    disc,
		deliver: deliver,
		flows:   make(map[uint32]*legacyFlowQueue),
		perFlow: make(map[uint32]int64),
	}
}

func (l *legacyLink) Stats() LinkStats            { return l.stats }
func (l *legacyLink) FlowBytes(flow uint32) int64 { return l.perFlow[flow] }
func (l *legacyLink) Queued() int                 { return l.queued }

func (l *legacyLink) SetDegrade(factor float64) {
	if factor <= 0 || factor >= 1 {
		factor = 0
	}
	l.degrade = factor
}

func (l *legacyLink) effectiveBps() float64 {
	if l.degrade == 0 {
		return l.bps
	}
	return l.bps * l.degrade
}

func (l *legacyLink) SetDown(down bool) {
	l.down = down
	if !down && !l.busy {
		l.transmitNext()
	}
}

func (l *legacyLink) SetFlowRateLimit(flow uint32, bytesPerSec float64) {
	q, ok := l.flows[flow]
	if !ok {
		q = &legacyFlowQueue{id: flow}
		l.flows[flow] = q
	}
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	q.limit = bytesPerSec
	if bytesPerSec == 0 {
		q.nextAt = 0
	}
	if !l.busy {
		l.transmitNext()
	}
}

func (l *legacyLink) Send(pkt *Packet) {
	if pkt.Sent == 0 {
		pkt.Sent = l.eng.Now()
	}
	l.queued++
	if l.queued > l.stats.MaxQueued {
		l.stats.MaxQueued = l.queued
	}
	switch l.disc {
	case FIFO:
		l.fifo = append(l.fifo, pkt)
	default:
		q, ok := l.flows[pkt.Flow]
		if !ok {
			q = &legacyFlowQueue{id: pkt.Flow}
			l.flows[pkt.Flow] = q
		}
		if len(q.pkts) == 0 {
			l.ring = append(l.ring, q)
		}
		q.pkts = append(q.pkts, pkt)
	}
	if !l.busy {
		l.transmitNext()
	}
}

func (l *legacyLink) next() *Packet {
	switch l.disc {
	case FIFO:
		if len(l.fifo) == 0 {
			return nil
		}
		pkt := l.fifo[0]
		l.fifo = l.fifo[1:]
		return pkt
	default:
		now := l.eng.Now()
		for scanned, n := 0, len(l.ring); scanned < n; scanned++ {
			if l.rrNext >= len(l.ring) {
				l.rrNext = 0
			}
			q := l.ring[l.rrNext]
			if q.limit > 0 && q.nextAt > now {
				l.rrNext++
				continue
			}
			pkt := q.pkts[0]
			q.pkts = q.pkts[1:]
			if q.limit > 0 {
				start := now
				if q.nextAt > start {
					start = q.nextAt
				}
				q.nextAt = start + sim.DurationOfBytes(int64(pkt.Bytes), q.limit)
			}
			if len(q.pkts) == 0 {
				l.ring = append(l.ring[:l.rrNext], l.ring[l.rrNext+1:]...)
			} else {
				l.rrNext++
			}
			return pkt
		}
		return nil
	}
}

func (l *legacyLink) armWakeup() {
	var at sim.Time = -1
	for _, q := range l.ring {
		if len(q.pkts) > 0 && q.limit > 0 && (at < 0 || q.nextAt < at) {
			at = q.nextAt
		}
	}
	if at < 0 {
		return
	}
	l.wakeup.Stop()
	l.wakeup = l.eng.Schedule(at, func() {
		if !l.busy {
			l.transmitNext()
		}
	})
}

func (l *legacyLink) transmitNext() {
	if l.down {
		l.busy = false
		return
	}
	pkt := l.next()
	if pkt == nil {
		l.busy = false
		l.armWakeup()
		return
	}
	l.busy = true
	ser := sim.DurationOfBytes(int64(pkt.Bytes), l.effectiveBps())
	l.stats.BusyTime += ser
	l.eng.After(ser, func() {
		l.stats.Packets++
		l.stats.Bytes += int64(pkt.Bytes)
		l.perFlow[pkt.Flow] += int64(pkt.Bytes)
		l.queued--
		l.eng.After(l.prop, func() { l.deliver(pkt) })
		l.transmitNext()
	})
}

// legacySwitch replicates the closure-per-forward Switch.
type legacySwitch struct {
	eng      *sim.Engine
	latency  sim.Time
	ports    map[int]*legacyLink
	defRoute func(pkt *Packet)
}

func newLegacySwitch(eng *sim.Engine, latency sim.Time) *legacySwitch {
	return &legacySwitch{eng: eng, latency: latency, ports: make(map[int]*legacyLink)}
}

func (s *legacySwitch) Inject(pkt *Packet) {
	egress, ok := s.ports[pkt.DstNode]
	if !ok {
		if s.defRoute != nil {
			s.eng.After(s.latency, func() { s.defRoute(pkt) })
			return
		}
		panic(fmt.Sprintf("fabric: packet for unattached node %d", pkt.DstNode))
	}
	s.eng.After(s.latency, func() { egress.Send(pkt) })
}
