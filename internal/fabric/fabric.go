// Package fabric models the InfiniBand interconnect: links that serialize
// MTU-sized packets at a configured bandwidth, and a cut-through switch that
// forwards between hosts.
//
// The paper's interference mechanism lives here. Each host's HCA shares one
// uplink (host→switch) and one downlink (switch→host) among all QPs of all
// VMs on that host. When a VM with a 2 MB buffer streams 2048 MTUs while a
// 64 KB VM sends 64, their packets arbitrate for the same wire; the small
// flow's transfer stretches and its latency spreads — exactly the Figure 1
// distribution. Links support two service disciplines:
//
//   - RoundRobin (default): per-flow queues served one MTU at a time, the
//     virtual-lane-style arbitration of an IB HCA;
//   - FIFO: a single queue in arrival order, which lets a burst of a large
//     message head-of-line-block small flows. The difference between the two
//     is an ablation benchmark.
package fabric

import (
	"fmt"

	"resex/internal/sim"
)

// DefaultMTU is the IB MTU used throughout the paper: 1 KB.
const DefaultMTU = 1024

// Packet is one MTU on the wire.
type Packet struct {
	// Flow keys arbitration on the egress link; sources use their QPN.
	Flow uint32
	// SrcNode and DstNode identify hosts (switch ports).
	SrcNode, DstNode int
	// DstFlow is the destination QPN.
	DstFlow uint32
	// Bytes is the wire size of this packet (≤ MTU).
	Bytes int
	// Msg identifies the message this MTU belongs to; Index is the MTU's
	// position and Last marks the final MTU of the message.
	Msg   uint64
	Index int
	Last  bool
	// Meta carries an opaque reference for the consumer (e.g. the work
	// request that produced the message).
	Meta any
	// Sent is stamped by the first link the packet enters.
	Sent sim.Time
}

// Discipline selects how a link arbitrates among flows.
type Discipline int

const (
	// RoundRobin serves per-flow queues one packet at a time.
	RoundRobin Discipline = iota
	// FIFO serves packets strictly in arrival order.
	FIFO
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case RoundRobin:
		return "rr"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// LinkStats aggregates what a link has carried.
type LinkStats struct {
	Packets   int64
	Bytes     int64
	BusyTime  sim.Time
	MaxQueued int
}

// Link is a unidirectional serializing channel: packets occupy the wire for
// Bytes/Bandwidth seconds each, then arrive at the receiver after the
// propagation delay. Queued packets wait according to the discipline.
//
// The steady-state hop allocates nothing. The wire holds at most one packet,
// so it lives in a field and its serialization end fires a callback bound
// once in NewLink. The propagation delay is fixed, so deliveries fire in the
// order they were scheduled and can wait in one in-flight FIFO drained by a
// second bound callback.
type Link struct {
	eng     *sim.Engine
	name    string
	bps     float64 // bytes per second
	prop    sim.Time
	disc    Discipline
	deliver func(*Packet)

	busy     bool
	wire     *Packet    // the packet being serialized while busy
	wireQ    *flowQueue // its flow, for byte accounting
	inflight queue[*Packet]
	fifo     queue[*Packet]
	flows    map[uint32]*flowQueue
	lastQ    *flowQueue   // flows entry of the last packet sent or dequeued
	ring     []*flowQueue // active flows, round-robin order
	rrNext   int
	queued   int
	stats    LinkStats
	wakeup   sim.Timer // pending retry for rate-limited flows

	// Callbacks bound once, so scheduling them allocates nothing.
	txDoneFn, deliverFn, wakeFn func()

	// Fault state (driven by the faults package).
	degrade float64 // bandwidth multiplier in (0,1]; 0 means healthy (×1)
	down    bool    // link flapped down: serialization pauses, queues grow
}

type flowQueue struct {
	id     uint32
	pkts   queue[*Packet]
	bytes  int64    // bytes carried, for IOShare accounting
	limit  float64  // bytes/second; 0 = unlimited
	nextAt sim.Time // earliest time the next packet may start (pacing)
}

// NewLink creates a link. bandwidth is in bytes/second; prop is the
// propagation delay added after serialization; deliver receives each packet
// at its arrival time.
func NewLink(eng *sim.Engine, name string, bandwidth float64, prop sim.Time, disc Discipline, deliver func(*Packet)) *Link {
	if bandwidth <= 0 {
		panic("fabric: link bandwidth must be positive")
	}
	if deliver == nil {
		panic("fabric: link needs a deliver function")
	}
	l := &Link{
		eng:     eng,
		name:    name,
		bps:     bandwidth,
		prop:    prop,
		disc:    disc,
		deliver: deliver,
		flows:   make(map[uint32]*flowQueue),
	}
	l.txDoneFn = l.txDone
	l.deliverFn = l.deliverHead
	l.wakeFn = l.wake
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link rate in bytes per second.
func (l *Link) Bandwidth() float64 { return l.bps }

// Propagation returns the link's fixed propagation delay — one term of the
// fabric's lookahead contract (see Switch.Latency).
func (l *Link) Propagation() sim.Time { return l.prop }

// Stats returns a snapshot of cumulative link statistics.
func (l *Link) Stats() LinkStats { return l.stats }

// FlowBytes returns cumulative bytes carried for a flow.
func (l *Link) FlowBytes(flow uint32) int64 {
	if q, ok := l.flows[flow]; ok {
		return q.bytes
	}
	return 0
}

// Queued returns the number of packets waiting or in flight on the wire.
func (l *Link) Queued() int { return l.queued }

// SetDegrade scales the link's effective bandwidth by factor (0 < factor ≤ 1)
// — a degraded cable, a retraining SerDes, congestion upstream of the model.
// Factors outside (0,1) restore full bandwidth. The packet currently being
// serialized finishes at the rate it started with; subsequent packets use
// the degraded rate.
func (l *Link) SetDegrade(factor float64) {
	if factor <= 0 || factor >= 1 {
		factor = 0 // healthy
	}
	l.degrade = factor
}

// Degrade returns the active bandwidth multiplier (1 when healthy).
func (l *Link) Degrade() float64 {
	if l.degrade == 0 {
		return 1
	}
	return l.degrade
}

// effectiveBps is the serialization rate under the active degradation.
func (l *Link) effectiveBps() float64 {
	if l.degrade == 0 {
		return l.bps
	}
	return l.bps * l.degrade
}

// SetDown flaps the link: while down, no new packet starts serializing
// (the one already on the wire completes) and senders keep queueing. Bringing
// the link back up resumes transmission from the queues.
func (l *Link) SetDown(down bool) {
	l.down = down
	if !down && !l.busy {
		l.transmitNext()
	}
}

// Down reports whether the link is currently flapped down.
func (l *Link) Down() bool { return l.down }

// SetFlowRateLimit paces a flow to at most bytesPerSec (0 removes the
// limit). This models the per-traffic-flow bandwidth limits of newer
// InfiniBand adapters that the paper's introduction points to as emerging
// hardware support; the rate-limit ablation benchmark compares it against
// ResEx's CPU-cap mechanism. Only meaningful with RoundRobin discipline.
func (l *Link) SetFlowRateLimit(flow uint32, bytesPerSec float64) {
	q := l.flow(flow)
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

// FlowRateLimit returns the flow's configured pacing rate (0 = unlimited).
func (l *Link) FlowRateLimit(flow uint32) float64 {
	if q, ok := l.flows[flow]; ok {
		return q.limit
	}
	return 0
}

// flow returns the flow's queue, creating it on first use. Senders burst one
// flow at a time, so the last queue looked up is checked before the map.
func (l *Link) flow(id uint32) *flowQueue {
	if q := l.lastQ; q != nil && q.id == id {
		return q
	}
	q, ok := l.flows[id]
	if !ok {
		q = &flowQueue{id: id}
		l.flows[id] = q
	}
	l.lastQ = q
	return q
}

// Send enqueues a packet for transmission.
func (l *Link) Send(pkt *Packet) {
	if pkt.Sent == 0 {
		pkt.Sent = l.eng.Now()
	}
	l.queued++
	if l.queued > l.stats.MaxQueued {
		l.stats.MaxQueued = l.queued
	}
	switch l.disc {
	case FIFO:
		l.fifo.push(pkt)
	default:
		q := l.flow(pkt.Flow)
		if q.pkts.len() == 0 {
			l.ring = append(l.ring, q)
		}
		q.pkts.push(pkt)
	}
	if !l.busy {
		l.transmitNext()
	}
}

// next pops the next packet according to the discipline, honoring per-flow
// pacing, and records its flow in wireQ. It returns nil when nothing is
// eligible right now.
func (l *Link) next() *Packet {
	switch l.disc {
	case FIFO:
		if l.fifo.len() == 0 {
			return nil
		}
		pkt := l.fifo.pop()
		l.wireQ = l.flow(pkt.Flow)
		return pkt
	default:
		now := l.eng.Now()
		for scanned, n := 0, len(l.ring); scanned < n; scanned++ {
			if l.rrNext >= len(l.ring) {
				l.rrNext = 0
			}
			q := l.ring[l.rrNext]
			if q.limit > 0 && q.nextAt > now {
				l.rrNext++ // paced out: try the next flow
				continue
			}
			pkt := q.pkts.pop()
			if q.limit > 0 {
				start := now
				if q.nextAt > start {
					start = q.nextAt
				}
				q.nextAt = start + sim.DurationOfBytes(int64(pkt.Bytes), q.limit)
			}
			if q.pkts.len() == 0 {
				l.ring = append(l.ring[:l.rrNext], l.ring[l.rrNext+1:]...)
				// rrNext now points at the flow after the removed one.
			} else {
				l.rrNext++
			}
			l.wireQ = q
			return pkt
		}
		return nil // every queued flow is paced out
	}
}

// armWakeup schedules a retry at the earliest pacing release among queued
// flows, so a fully paced-out link resumes by itself.
func (l *Link) armWakeup() {
	var at sim.Time = -1
	for _, q := range l.ring {
		if q.pkts.len() > 0 && q.limit > 0 && (at < 0 || q.nextAt < at) {
			at = q.nextAt
		}
	}
	if at < 0 {
		return
	}
	l.wakeup.Stop()
	l.wakeup = l.eng.Schedule(at, l.wakeFn)
}

// wake is the pacing retry armed by armWakeup.
func (l *Link) wake() {
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext serializes the next queued packet.
func (l *Link) transmitNext() {
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
	l.wire = pkt
	ser := sim.DurationOfBytes(int64(pkt.Bytes), l.effectiveBps())
	l.stats.BusyTime += ser
	l.eng.After(ser, l.txDoneFn)
}

// txDone fires when the wire packet has been serialized: account for it,
// start its propagation and put the next packet on the wire.
func (l *Link) txDone() {
	pkt := l.wire
	l.wire = nil
	l.stats.Packets++
	l.stats.Bytes += int64(pkt.Bytes)
	l.wireQ.bytes += int64(pkt.Bytes)
	l.queued--
	l.inflight.push(pkt)
	l.eng.After(l.prop, l.deliverFn)
	l.transmitNext()
}

// deliverHead hands the oldest in-flight packet to the receiver. Every
// packet propagates for the same fixed delay, so the event firing now is the
// one scheduled for the FIFO's head.
func (l *Link) deliverHead() {
	l.deliver(l.inflight.pop())
}

// Switch is an output-queued crossbar: packets injected from host uplinks
// are forwarded, after a fixed forwarding latency, onto the egress link of
// their destination node. The latency is the same for every packet, so
// forwards fire in injection order: they wait in one FIFO drained by a
// callback bound once in NewSwitch, and a hop allocates nothing.
type Switch struct {
	eng       *sim.Engine
	latency   sim.Time
	ports     map[int]*Link
	defRoute  func(pkt *Packet)
	pending   queue[hop]
	forwardFn func()
}

// hop is a packet waiting out the forwarding latency. A nil egress means
// the default route.
type hop struct {
	pkt    *Packet
	egress *Link
}

// NewSwitch creates a switch with the given forwarding latency.
func NewSwitch(eng *sim.Engine, latency sim.Time) *Switch {
	s := &Switch{eng: eng, latency: latency, ports: make(map[int]*Link)}
	s.forwardFn = s.forwardHead
	return s
}

// Latency returns the fixed forwarding latency. Together with
// Link.Propagation it defines the fabric's lookahead contract: any packet
// crossing host boundaries is in flight for at least the sum of its path's
// propagation delays plus one switch latency, so a sharded run
// (internal/simpar) may safely simulate that far ahead without hearing
// from other hosts.
func (s *Switch) Latency() sim.Time { return s.latency }

// AttachNode connects node's downlink (switch→host egress link).
func (s *Switch) AttachNode(node int, egress *Link) {
	if _, dup := s.ports[node]; dup {
		panic(fmt.Sprintf("fabric: node %d already attached", node))
	}
	s.ports[node] = egress
}

// SetDefaultRoute installs an uplink port: packets for nodes with no
// attached egress link are handed to f after the forwarding latency,
// instead of panicking. A sharded interconnect uses this as the site
// switch's trunk toward hosts that live on other engines.
func (s *Switch) SetDefaultRoute(f func(pkt *Packet)) { s.defRoute = f }

// Inject receives a packet from a host uplink and forwards it. Unknown
// destinations panic unless a default route is installed: the simulated
// cluster is statically wired.
func (s *Switch) Inject(pkt *Packet) {
	egress, ok := s.ports[pkt.DstNode]
	if !ok && s.defRoute == nil {
		panic(fmt.Sprintf("fabric: packet for unattached node %d", pkt.DstNode))
	}
	s.pending.push(hop{pkt: pkt, egress: egress})
	s.eng.After(s.latency, s.forwardFn)
}

// forwardHead moves the oldest injected packet onto its egress.
func (s *Switch) forwardHead() {
	h := s.pending.pop()
	if h.egress == nil {
		s.defRoute(h.pkt)
		return
	}
	h.egress.Send(h.pkt)
}

// queue is a growable FIFO over a power-of-two circular buffer. It reuses
// its storage, so a queue that stays within its high-water mark allocates
// nothing. A queue that drains after growing past queueKeep entries gives its
// storage back, so a bulk burst does not pin thousands of slots on every
// flow it ever touched.
type queue[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *queue[T]) len() int { return r.n }

func (r *queue[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the queue must not be empty.
func (r *queue[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // drop the reference for the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n == 0 && len(r.buf) > queueKeep {
		r.buf, r.head = nil, 0
	}
	return v
}

// queueKeep is the largest buffer a drained queue keeps for reuse.
const queueKeep = 256

func (r *queue[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
