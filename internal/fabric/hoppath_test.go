package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"resex/internal/sim"
)

// hopLink is the surface Link and legacyLink share.
type hopLink interface {
	Send(*Packet)
	SetDown(bool)
	SetDegrade(float64)
	SetFlowRateLimit(uint32, float64)
	Stats() LinkStats
	FlowBytes(uint32) int64
	Queued() int
}

// hopRec is one packet arriving at a host (node ≥ 0) or at the far end of
// the default-route trunk (node -1).
type hopRec struct {
	node  int
	at    sim.Time
	steps uint64
	msg   uint64
	index int
	sent  sim.Time
}

// hopWorld is a star fabric: hosts with an uplink and a downlink each, one
// switch, and a default-route trunk for destinations no port serves.
type hopWorld struct {
	eng   *sim.Engine
	ups   []hopLink
	downs []hopLink
	trunk hopLink
	trace []hopRec
}

const trunkNode = 99

func newHopWorld(legacy bool, disc Discipline, hosts int) *hopWorld {
	w := &hopWorld{eng: sim.New()}
	recv := func(node int) func(*Packet) {
		return func(p *Packet) {
			w.trace = append(w.trace, hopRec{node, w.eng.Now(), w.eng.Steps(), p.Msg, p.Index, p.Sent})
		}
	}
	if legacy {
		sw := newLegacySwitch(w.eng, 150)
		trunk := newLegacyLink(w.eng, gbps1/2, 700, disc, recv(-1))
		sw.defRoute = trunk.Send
		w.trunk = trunk
		for h := 0; h < hosts; h++ {
			down := newLegacyLink(w.eng, gbps1, 100, disc, recv(h))
			sw.ports[h] = down
			w.downs = append(w.downs, down)
			w.ups = append(w.ups, newLegacyLink(w.eng, gbps1, 100, disc, sw.Inject))
		}
		return w
	}
	sw := NewSwitch(w.eng, 150)
	trunk := NewLink(w.eng, "trunk", gbps1/2, 700, disc, recv(-1))
	sw.SetDefaultRoute(trunk.Send)
	w.trunk = trunk
	for h := 0; h < hosts; h++ {
		down := NewLink(w.eng, fmt.Sprintf("down%d", h), gbps1, 100, disc, recv(h))
		sw.AttachNode(h, down)
		w.downs = append(w.downs, down)
		w.ups = append(w.ups, NewLink(w.eng, fmt.Sprintf("up%d", h), gbps1, 100, disc, sw.Inject))
	}
	return w
}

// links lists every link in a fixed order: uplinks, downlinks, trunk.
func (w *hopWorld) links() []hopLink {
	out := append(append([]hopLink{}, w.ups...), w.downs...)
	return append(out, w.trunk)
}

// hopOp is one step of a generated traffic program.
type hopOp struct {
	at     sim.Time
	kind   int // 0 send, 1 rate limit, 2 flap, 3 degrade
	link   int // index into links() for 1–3; source host for 0
	dst    int
	flow   uint32
	mtus   int
	last   int // bytes in the final MTU
	msg    uint64
	rate   float64
	factor float64
	dur    sim.Time
}

const hopHosts = 4

// hopProgram generates seeded traffic: bursty multi-MTU messages on several
// flows per host (some to the trunk), rate limits that pace every flow of
// uplink 0 out so it must wake itself, mid-stream flaps and degradations.
func hopProgram(seed int64) []hopOp {
	r := sim.NewRand(seed)
	nLinks := 2*hopHosts + 1
	var ops []hopOp
	for f := uint32(0); f < 3; f++ {
		ops = append(ops, hopOp{kind: 1, link: 0, flow: f, rate: 2e8})
	}
	var msg uint64
	for i := 0; i < 400; i++ {
		at := sim.Time(r.Intn(400_000))
		switch k := r.Intn(20); {
		case k < 15:
			msg++
			dst := r.Intn(hopHosts + 1)
			if dst == hopHosts {
				dst = trunkNode
			}
			ops = append(ops, hopOp{
				at: at, kind: 0, link: r.Intn(hopHosts), dst: dst,
				flow: uint32(r.Intn(3)), mtus: 1 + r.Intn(48),
				last: 1 + r.Intn(DefaultMTU), msg: msg,
			})
		case k < 17:
			rate := 0.0
			if r.Intn(3) > 0 {
				rate = float64(5e7 + r.Intn(4e8))
			}
			ops = append(ops, hopOp{at: at, kind: 1, link: r.Intn(nLinks), flow: uint32(r.Intn(3)), rate: rate})
		case k < 19:
			ops = append(ops, hopOp{at: at, kind: 2, link: r.Intn(nLinks), dur: sim.Time(1 + r.Intn(30_000))})
		default:
			ops = append(ops, hopOp{at: at, kind: 3, link: r.Intn(nLinks), factor: r.Float64() * 1.2})
		}
	}
	return ops
}

// arm schedules the program on w's engine.
func (w *hopWorld) arm(ops []hopOp) {
	links := w.links()
	for _, op := range ops {
		switch op.kind {
		case 0:
			w.eng.Schedule(op.at, func() {
				for i := 0; i < op.mtus; i++ {
					bytes := DefaultMTU
					if i == op.mtus-1 {
						bytes = op.last
					}
					w.ups[op.link].Send(&Packet{
						Flow: op.flow, SrcNode: op.link, DstNode: op.dst, Bytes: bytes,
						Msg: op.msg, Index: i, Last: i == op.mtus-1,
					})
				}
			})
		case 1:
			w.eng.Schedule(op.at, func() { links[op.link].SetFlowRateLimit(op.flow, op.rate) })
		case 2:
			w.eng.Schedule(op.at, func() { links[op.link].SetDown(true) })
			w.eng.Schedule(op.at+op.dur, func() { links[op.link].SetDown(false) })
		case 3:
			w.eng.Schedule(op.at, func() { links[op.link].SetDegrade(op.factor) })
		}
	}
}

// compareHopWorlds fails on the first observable difference between the
// reference and the production fabric.
func compareHopWorlds(t *testing.T, when string, ref, got *hopWorld) {
	t.Helper()
	if len(ref.trace) != len(got.trace) {
		t.Fatalf("%s: %d deliveries, reference %d", when, len(got.trace), len(ref.trace))
	}
	for i := range ref.trace {
		if ref.trace[i] != got.trace[i] {
			t.Fatalf("%s: delivery %d = %+v, reference %+v", when, i, got.trace[i], ref.trace[i])
		}
	}
	rl, gl := ref.links(), got.links()
	for i := range rl {
		if rs, gs := rl[i].Stats(), gl[i].Stats(); rs != gs {
			t.Fatalf("%s: link %d stats %+v, reference %+v", when, i, gs, rs)
		}
		if rq, gq := rl[i].Queued(), gl[i].Queued(); rq != gq {
			t.Fatalf("%s: link %d queued %d, reference %d", when, i, gq, rq)
		}
		for f := uint32(0); f < 4; f++ {
			if rb, gb := rl[i].FlowBytes(f), gl[i].FlowBytes(f); rb != gb {
				t.Fatalf("%s: link %d flow %d bytes %d, reference %d", when, i, f, gb, rb)
			}
		}
	}
	if !reflect.DeepEqual(ref.eng.Checkpoint(), got.eng.Checkpoint()) {
		t.Fatalf("%s: engine state diverged", when)
	}
}

// TestHopPathMatchesLegacy drives seeded traffic through the production
// fabric and through the closure-per-hop reference on twin engines and
// requires the same deliveries (time, step count, message, MTU index), the
// same link statistics, queue depths and per-flow bytes, and the same engine
// state at every checkpoint. Equal step counts and seq counters prove the
// bound callbacks fire as the same events the closures did.
func TestHopPathMatchesLegacy(t *testing.T) {
	for _, disc := range []Discipline{RoundRobin, FIFO} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", disc, seed), func(t *testing.T) {
				ops := hopProgram(seed)
				ref := newHopWorld(true, disc, hopHosts)
				got := newHopWorld(false, disc, hopHosts)
				ref.arm(ops)
				got.arm(ops)
				for at := sim.Time(0); at <= 500_000; at += 10_000 {
					ref.eng.RunUntil(at)
					got.eng.RunUntil(at)
					compareHopWorlds(t, fmt.Sprintf("t=%d", at), ref, got)
				}
				ref.eng.Run()
				got.eng.Run()
				compareHopWorlds(t, "drained", ref, got)
				if len(got.trace) == 0 {
					t.Fatal("no traffic delivered")
				}
			})
		}
	}
}

// TestHopPathAllocFree requires a warmed-up uplink → switch → downlink hop
// to allocate nothing per packet under either discipline. Under RoundRobin
// every flow is paced below the link rate, so the link idles and must wake
// itself.
func TestHopPathAllocFree(t *testing.T) {
	for _, disc := range []Discipline{RoundRobin, FIFO} {
		eng := sim.New()
		delivered := 0
		down := NewLink(eng, "down", gbps1, 100, disc, func(*Packet) { delivered++ })
		sw := NewSwitch(eng, 200)
		sw.AttachNode(2, down)
		up := NewLink(eng, "up", gbps1, 100, disc, sw.Inject)
		for f := uint32(1); f <= 3; f++ {
			up.SetFlowRateLimit(f, 2e8)
		}
		pkts := make([]Packet, 96)
		burst := func() {
			for i := range pkts {
				pkts[i] = Packet{Flow: uint32(1 + i%3), SrcNode: 1, DstNode: 2, Bytes: DefaultMTU, Index: i}
				up.Send(&pkts[i])
			}
			eng.Run()
		}
		burst() // grow the rings, the flow table and the event pool
		if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
			t.Errorf("%v: %.1f allocations per %d-packet burst, want 0", disc, allocs, len(pkts))
		}
		// One warm-up burst here, one more inside AllocsPerRun, 20 measured.
		if want := 22 * len(pkts); delivered != want {
			t.Errorf("%v: delivered %d packets, want %d", disc, delivered, want)
		}
	}
}
