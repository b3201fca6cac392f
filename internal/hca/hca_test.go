package hca

import (
	"bytes"
	"testing"

	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/sim"
)

// rig is a two-host test fabric: node 1 and node 2 joined by a switch.
type rig struct {
	eng  *sim.Engine
	h1   *HCA
	h2   *HCA
	mem1 *guestmem.Space
	mem2 *guestmem.Space
	pd1  *PD
	pd2  *PD
}

const testBW = 1e9 // 1 GB/s

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.New()
	r := &rig{eng: eng}
	r.h1 = New(eng, Config{Node: 1})
	r.h2 = New(eng, Config{Node: 2})
	sw := fabric.NewSwitch(eng, 100)
	hcas := map[int]*HCA{1: r.h1, 2: r.h2}
	resolver := func(n int) *HCA { return hcas[n] }
	for n, h := range hcas {
		h.SetPeerResolver(resolver)
		h.SetUplink(fabric.NewLink(eng, "up", testBW, 100, fabric.RoundRobin, sw.Inject))
		hh := h
		sw.AttachNode(n, fabric.NewLink(eng, "down", testBW, 100, fabric.RoundRobin, hh.Deliver))
	}
	r.mem1 = guestmem.NewSpace(64 << 20)
	r.mem2 = guestmem.NewSpace(64 << 20)
	r.pd1 = r.h1.AllocPD(r.mem1)
	r.pd2 = r.h2.AllocPD(r.mem2)
	return r
}

// connect builds a connected QP pair (qp1 on host1, qp2 on host2).
func (r *rig) connect(t *testing.T, depth int) (*QP, *CQ, *CQ, *QP, *CQ, *CQ) {
	t.Helper()
	scq1, rcq1 := r.pd1.CreateCQ(256), r.pd1.CreateCQ(256)
	scq2, rcq2 := r.pd2.CreateCQ(256), r.pd2.CreateCQ(256)
	qp1 := r.pd1.CreateQP(scq1, rcq1, depth, depth)
	qp2 := r.pd2.CreateQP(scq2, rcq2, depth, depth)
	if err := qp1.Connect(2, qp2.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qp2.Connect(1, qp1.QPN()); err != nil {
		t.Fatal(err)
	}
	return qp1, scq1, rcq1, qp2, scq2, rcq2
}

func TestMRRegistration(t *testing.T) {
	r := newRig(t)
	mr, err := r.pd1.RegisterMR(0x1000, 4096, AccessLocalWrite|AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Key() == 0 || mr.Addr() != 0x1000 || mr.Len() != 4096 {
		t.Errorf("MR fields: %+v", mr)
	}
	if _, err := r.pd1.RegisterMR(0, 1<<40, AccessLocalWrite); err != ErrMRTooLarge {
		t.Errorf("oversized registration: %v", err)
	}
	// TPT honors range and access.
	if r.h1.checkKey(mr.Key(), r.mem1, 0x1000, 4096, AccessRemoteWrite) == nil {
		t.Error("valid key rejected")
	}
	if r.h1.checkKey(mr.Key(), r.mem1, 0x1000, 5000, 0) != nil {
		t.Error("out-of-range access allowed")
	}
	if r.h1.checkKey(mr.Key(), r.mem1, 0x1000, 64, AccessRemoteRead) != nil {
		t.Error("missing access right allowed")
	}
	if r.h1.checkKey(0xdead, r.mem1, 0x1000, 64, 0) != nil {
		t.Error("unknown key allowed")
	}
	r.pd1.DeregisterMR(mr)
	if r.h1.checkKey(mr.Key(), r.mem1, 0x1000, 64, 0) != nil {
		t.Error("deregistered key still valid")
	}
}

func TestSendRecvDeliversPayload(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, qp2, _, rcq2 := r.connect(t, 16)

	src := r.mem1.Alloc(65536, 64)
	dst := r.mem2.Alloc(65536, 64)
	mr1, _ := r.pd1.RegisterMR(src, 65536, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 65536, AccessLocalWrite)

	payload := bytes.Repeat([]byte("trade!"), 100)
	if err := qp2.PostRecv(RecvWR{ID: 9, Addr: dst, LKey: mr2.Key(), Len: 65536}); err != nil {
		t.Fatal(err)
	}
	if err := qp1.PostSend(SendWR{ID: 7, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: len(payload), Payload: payload, Imm: 42}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	e, ok := rcq2.Poll()
	if !ok {
		t.Fatal("no recv completion")
	}
	if e.WRID != 9 || e.Opcode != OpRecv || e.Status != StatusOK || int(e.ByteLen) != len(payload) || e.Imm != 42 {
		t.Errorf("recv CQE = %+v", e)
	}
	got := make([]byte, len(payload))
	r.mem2.Read(dst, got)
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted in flight")
	}
	se, ok := scq1.Poll()
	if !ok {
		t.Fatal("no send completion")
	}
	if se.WRID != 7 || se.Status != StatusOK || se.Opcode != OpSend {
		t.Errorf("send CQE = %+v", se)
	}
	if _, ok := scq1.Poll(); ok {
		t.Error("spurious extra completion")
	}
}

func TestSendTiming64KB(t *testing.T) {
	// 64KB at 1GB/s through two links: uplink pipeline dominates; the send
	// completion lands after delivery + ack latency.
	r := newRig(t)
	qp1, scq1, _, qp2, _, _ := r.connect(t, 16)
	src := r.mem1.Alloc(65536, 64)
	dst := r.mem2.Alloc(65536, 64)
	mr1, _ := r.pd1.RegisterMR(src, 65536, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 65536, AccessLocalWrite)
	_ = qp2.PostRecv(RecvWR{ID: 1, Addr: dst, LKey: mr2.Key(), Len: 65536})
	_ = qp1.PostSend(SendWR{ID: 2, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: 65536})
	r.eng.Run()
	e, ok := scq1.Poll()
	if !ok {
		t.Fatal("no completion")
	}
	// ProcDelay 300 + 64×1024ns serialization + prop 100 + switch 100 +
	// last-MTU downlink 1024 + prop 100 + ack 1500 ≈ 68.6µs.
	at := e.At
	lo, hi := 65*sim.Microsecond, 75*sim.Microsecond
	if at < lo || at > hi {
		t.Errorf("64KB send completed at %v, want ~68µs", at)
	}
}

func TestRNRParking(t *testing.T) {
	// SEND arriving before a recv is posted parks until PostRecv.
	r := newRig(t)
	qp1, scq1, _, qp2, _, rcq2 := r.connect(t, 16)
	src := r.mem1.Alloc(4096, 64)
	dst := r.mem2.Alloc(4096, 64)
	mr1, _ := r.pd1.RegisterMR(src, 4096, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 4096, AccessLocalWrite)
	_ = qp1.PostSend(SendWR{ID: 1, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: 1024})
	r.eng.Run()
	if _, ok := rcq2.Poll(); ok {
		t.Fatal("completion before recv posted")
	}
	if _, ok := scq1.Poll(); ok {
		t.Fatal("sender completed before delivery")
	}
	_ = qp2.PostRecv(RecvWR{ID: 2, Addr: dst, LKey: mr2.Key(), Len: 4096})
	r.eng.Run()
	if _, ok := rcq2.Poll(); !ok {
		t.Error("parked send not delivered after PostRecv")
	}
	if _, ok := scq1.Poll(); !ok {
		t.Error("sender not completed after RNR resolution")
	}
}

func TestRDMAWrite(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, _, _, rcq2 := r.connect(t, 16)
	src := r.mem1.Alloc(8192, 64)
	dst := r.mem2.Alloc(8192, 64)
	mr1, _ := r.pd1.RegisterMR(src, 8192, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 8192, AccessRemoteWrite)
	data := bytes.Repeat([]byte{0x5a}, 3000)
	err := qp1.PostSend(SendWR{
		ID: 11, Op: OpRDMAWrite, LocalAddr: src, LKey: mr1.Key(),
		Len: 3000, RemoteAddr: dst, RKey: mr2.Key(), Payload: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	got := make([]byte, 3000)
	r.mem2.Read(dst, got)
	if !bytes.Equal(got, data) {
		t.Error("RDMA write data mismatch")
	}
	if e, ok := scq1.Poll(); !ok || e.Status != StatusOK || e.Opcode != OpRDMAWrite {
		t.Errorf("sender completion: %+v ok=%v", e, ok)
	}
	// Plain write is invisible to the responder's CPU.
	if _, ok := rcq2.Poll(); ok {
		t.Error("plain RDMA write should not generate a recv completion")
	}
}

func TestRDMAWriteWithImm(t *testing.T) {
	r := newRig(t)
	qp1, _, _, qp2, _, rcq2 := r.connect(t, 16)
	src := r.mem1.Alloc(4096, 64)
	dst := r.mem2.Alloc(4096, 64)
	mr1, _ := r.pd1.RegisterMR(src, 4096, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 4096, AccessRemoteWrite|AccessLocalWrite)
	_ = qp2.PostRecv(RecvWR{ID: 5, Addr: dst, LKey: mr2.Key(), Len: 0})
	err := qp1.PostSend(SendWR{
		ID: 6, Op: OpRDMAWriteImm, LocalAddr: src, LKey: mr1.Key(),
		Len: 2048, RemoteAddr: dst, RKey: mr2.Key(), Imm: 0xfeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	e, ok := rcq2.Poll()
	if !ok {
		t.Fatal("write-with-imm produced no recv completion")
	}
	if e.Imm != 0xfeed || e.ByteLen != 2048 {
		t.Errorf("CQE = %+v", e)
	}
}

func TestRDMAWriteAccessViolation(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, _, _, _ := r.connect(t, 16)
	src := r.mem1.Alloc(4096, 64)
	dst := r.mem2.Alloc(4096, 64)
	mr1, _ := r.pd1.RegisterMR(src, 4096, 0)
	// Remote MR lacks AccessRemoteWrite.
	mr2, _ := r.pd2.RegisterMR(dst, 4096, AccessLocalWrite)
	_ = qp1.PostSend(SendWR{
		ID: 3, Op: OpRDMAWrite, LocalAddr: src, LKey: mr1.Key(),
		Len: 1024, RemoteAddr: dst, RKey: mr2.Key(),
	})
	r.eng.Run()
	e, ok := scq1.Poll()
	if !ok {
		t.Fatal("no completion")
	}
	if e.Status != StatusRemoteAccessErr {
		t.Errorf("status = %v, want RemoteAccessErr", e.Status)
	}
}

func TestRDMARead(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, _, _, _ := r.connect(t, 16)
	local := r.mem1.Alloc(8192, 64)
	remote := r.mem2.Alloc(8192, 64)
	mr1, _ := r.pd1.RegisterMR(local, 8192, AccessLocalWrite)
	mr2, _ := r.pd2.RegisterMR(remote, 8192, AccessRemoteRead)
	want := bytes.Repeat([]byte("quote"), 500)
	r.mem2.Write(remote, want)
	err := qp1.PostSend(SendWR{
		ID: 21, Op: OpRDMARead, LocalAddr: local, LKey: mr1.Key(),
		Len: len(want), RemoteAddr: remote, RKey: mr2.Key(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	e, ok := scq1.Poll()
	if !ok {
		t.Fatal("no READ completion")
	}
	if e.Opcode != OpRDMARead || e.Status != StatusOK || int(e.ByteLen) != len(want) {
		t.Errorf("CQE = %+v", e)
	}
	got := make([]byte, len(want))
	r.mem1.Read(local, got)
	if !bytes.Equal(got, want) {
		t.Error("READ data mismatch")
	}
}

func TestPostSendValidation(t *testing.T) {
	r := newRig(t)
	scq, rcq := r.pd1.CreateCQ(16), r.pd1.CreateCQ(16)
	qp := r.pd1.CreateQP(scq, rcq, 2, 2)
	src := r.mem1.Alloc(4096, 64)
	mr, _ := r.pd1.RegisterMR(src, 4096, 0)

	// Not connected.
	if err := qp.PostSend(SendWR{Op: OpSend, LocalAddr: src, LKey: mr.Key(), Len: 64}); err != ErrNotRTS {
		t.Errorf("unconnected post: %v", err)
	}
	if err := qp.Connect(2, 77); err != nil {
		t.Fatal(err)
	}
	if err := qp.Connect(2, 77); err != ErrConnected {
		t.Errorf("double connect: %v", err)
	}
	// Bad lkey.
	if err := qp.PostSend(SendWR{Op: OpSend, LocalAddr: src, LKey: 0xbad, Len: 64}); err != ErrBadLKey {
		t.Errorf("bad lkey: %v", err)
	}
	// Out-of-MR length.
	if err := qp.PostSend(SendWR{Op: OpSend, LocalAddr: src, LKey: mr.Key(), Len: 8192}); err != ErrBadLKey {
		t.Errorf("oversized: %v", err)
	}
	// Payload longer than Len.
	if err := qp.PostSend(SendWR{Op: OpSend, LocalAddr: src, LKey: mr.Key(), Len: 4, Payload: []byte("hello")}); err != ErrPayloadSize {
		t.Errorf("payload size: %v", err)
	}
	// SQ depth enforcement.
	for i := 0; i < 2; i++ {
		if err := qp.PostSend(SendWR{Op: OpSend, LocalAddr: src, LKey: mr.Key(), Len: 64}); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := qp.PostSend(SendWR{Op: OpSend, LocalAddr: src, LKey: mr.Key(), Len: 64}); err != ErrSQFull {
		t.Errorf("full SQ: %v", err)
	}
	// RQ depth + lkey enforcement.
	if err := qp.PostRecv(RecvWR{Addr: src, LKey: 0xbad, Len: 64}); err != ErrBadLKey {
		t.Errorf("recv bad lkey: %v", err)
	}
	mrw, _ := r.pd1.RegisterMR(src, 4096, AccessLocalWrite)
	for i := 0; i < 2; i++ {
		if err := qp.PostRecv(RecvWR{Addr: src, LKey: mrw.Key(), Len: 64}); err != nil {
			t.Fatalf("postrecv %d: %v", i, err)
		}
	}
	if err := qp.PostRecv(RecvWR{Addr: src, LKey: mrw.Key(), Len: 64}); err != ErrRQFull {
		t.Errorf("full RQ: %v", err)
	}
}

func TestCQGuestMemoryEncoding(t *testing.T) {
	// The CQE ring and doorbell record must be readable as raw bytes from
	// the guest address space: that is IBMon's contract.
	r := newRig(t)
	qp1, scq1, _, qp2, _, _ := r.connect(t, 16)
	src := r.mem1.Alloc(4096, 64)
	dst := r.mem2.Alloc(4096, 64)
	mr1, _ := r.pd1.RegisterMR(src, 4096, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 4096, AccessLocalWrite)
	_ = qp2.PostRecv(RecvWR{ID: 1, Addr: dst, LKey: mr2.Key(), Len: 4096})
	_ = qp1.PostSend(SendWR{ID: 0xabcdef, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: 2000})
	r.eng.Run()

	// Raw read of the doorbell record: one completion produced.
	if n := r.mem1.ReadU64(scq1.DBRecAddr()); n != 1 {
		t.Errorf("dbrec = %d, want 1", n)
	}
	// Raw parse of CQE 0.
	base := scq1.RingAddr()
	if stamp := r.mem1.ReadU32(base); stamp != 1 {
		t.Errorf("stamp = %d", stamp)
	}
	if qpn := r.mem1.ReadU32(base + cqeOffQPN); qpn != qp1.QPN() {
		t.Errorf("qpn = %d, want %d", qpn, qp1.QPN())
	}
	if l := r.mem1.ReadU32(base + cqeOffLen); l != 2000 {
		t.Errorf("byteLen = %d", l)
	}
	if id := r.mem1.ReadU64(base + cqeOffWRID); id != 0xabcdef {
		t.Errorf("wrID = %#x", id)
	}
}

func TestCQPollAndPending(t *testing.T) {
	r := newRig(t)
	cq := r.pd1.CreateCQ(4)
	if cq.Pending() != 0 {
		t.Error("fresh CQ pending")
	}
	if _, ok := cq.Poll(); ok {
		t.Error("empty poll returned entry")
	}
	for i := 0; i < 4; i++ {
		cq.push(1, OpSend, StatusOK, 100, uint64(i), 0)
	}
	if cq.Pending() != 4 {
		t.Errorf("pending = %d", cq.Pending())
	}
	for i := 0; i < 4; i++ {
		e, ok := cq.Poll()
		if !ok || e.WRID != uint64(i) {
			t.Fatalf("poll %d: %+v ok=%v", i, e, ok)
		}
	}
	// Ring wraps.
	cq.push(1, OpSend, StatusOK, 1, 99, 0)
	if e, ok := cq.Poll(); !ok || e.WRID != 99 {
		t.Error("wrap-around poll failed")
	}
}

func TestCQOverrunOverwritesOldest(t *testing.T) {
	r := newRig(t)
	cq := r.pd1.CreateCQ(2)
	for i := 0; i < 5; i++ {
		cq.push(1, OpSend, StatusOK, 0, uint64(i), 0)
	}
	if cq.Overruns() != 3 {
		t.Errorf("Overruns = %d, want 3", cq.Overruns())
	}
	// Only the newest two entries survive; the poller resyncs past the
	// overwritten ones.
	e, ok := cq.Poll()
	if !ok || e.WRID != 3 {
		t.Errorf("first surviving entry = %+v ok=%v, want WRID 3", e, ok)
	}
	e, ok = cq.Poll()
	if !ok || e.WRID != 4 {
		t.Errorf("second surviving entry = %+v ok=%v, want WRID 4", e, ok)
	}
	if _, ok := cq.Poll(); ok {
		t.Error("extra entry after drain")
	}
}

func TestOrderingPerQP(t *testing.T) {
	// RC guarantee: completions arrive in posting order.
	r := newRig(t)
	qp1, scq1, _, qp2, _, rcq2 := r.connect(t, 64)
	src := r.mem1.Alloc(1<<20, 64)
	dst := r.mem2.Alloc(1<<20, 64)
	mr1, _ := r.pd1.RegisterMR(src, 1<<20, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 1<<20, AccessLocalWrite)
	sizes := []int{100000, 64, 9000, 1024, 300000, 1}
	for i := range sizes {
		_ = qp2.PostRecv(RecvWR{ID: uint64(i), Addr: dst, LKey: mr2.Key(), Len: 1 << 20})
	}
	for i, n := range sizes {
		if err := qp1.PostSend(SendWR{ID: uint64(i), Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: n}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	for i := range sizes {
		se, ok := scq1.Poll()
		if !ok || se.WRID != uint64(i) {
			t.Fatalf("send completion %d out of order: %+v", i, se)
		}
		re, ok := rcq2.Poll()
		if !ok || re.WRID != uint64(i) || int(re.ByteLen) != sizes[i] {
			t.Fatalf("recv completion %d out of order: %+v", i, re)
		}
	}
}

func TestHCAStats(t *testing.T) {
	r := newRig(t)
	qp1, _, _, qp2, _, _ := r.connect(t, 16)
	src := r.mem1.Alloc(65536, 64)
	dst := r.mem2.Alloc(65536, 64)
	mr1, _ := r.pd1.RegisterMR(src, 65536, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 65536, AccessLocalWrite)
	_ = qp2.PostRecv(RecvWR{ID: 1, Addr: dst, LKey: mr2.Key(), Len: 65536})
	_ = qp1.PostSend(SendWR{ID: 1, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: 65536})
	r.eng.Run()
	if r.h1.MessagesSent() != 1 || r.h1.BytesSent() != 65536 {
		t.Errorf("stats: %d msgs %d bytes", r.h1.MessagesSent(), r.h1.BytesSent())
	}
	if r.h1.MTU() != 1024 || r.h1.Node() != 1 || r.h1.Name() != "hca1" {
		t.Error("accessors")
	}
	if r.h1.QP(qp1.QPN()) != qp1 || r.h1.QP(0xffff) != nil {
		t.Error("QP lookup")
	}
}

func TestZeroLengthSend(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, qp2, _, rcq2 := r.connect(t, 16)
	src := r.mem1.Alloc(64, 64)
	dst := r.mem2.Alloc(64, 64)
	mr1, _ := r.pd1.RegisterMR(src, 64, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 64, AccessLocalWrite)
	_ = qp2.PostRecv(RecvWR{ID: 1, Addr: dst, LKey: mr2.Key(), Len: 64})
	if err := qp1.PostSend(SendWR{ID: 2, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: 0}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if e, ok := rcq2.Poll(); !ok || e.ByteLen != 0 {
		t.Errorf("zero-length send: %+v ok=%v", e, ok)
	}
	if _, ok := scq1.Poll(); !ok {
		t.Error("no send completion for zero-length send")
	}
}

func TestDestroyQPFlushesAndDropsInFlight(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, qp2, _, rcq2 := r.connect(t, 16)
	src := r.mem1.Alloc(1<<20, 64)
	dst := r.mem2.Alloc(1<<20, 64)
	mr1, _ := r.pd1.RegisterMR(src, 1<<20, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 1<<20, AccessLocalWrite)
	// Post recvs that will be flushed, and a large send in flight.
	_ = qp2.PostRecv(RecvWR{ID: 100, Addr: dst, LKey: mr2.Key(), Len: 1 << 20})
	_ = qp2.PostRecv(RecvWR{ID: 101, Addr: dst, LKey: mr2.Key(), Len: 1 << 20})
	if err := qp1.PostSend(SendWR{ID: 1, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	// Destroy the receiver mid-transfer (1MB takes ~1ms; destroy at 100µs).
	r.eng.Schedule(100*sim.Microsecond, func() { r.pd2.DestroyQP(qp2) })
	r.eng.Run()
	// Receiver's posted recvs flushed with errors.
	for _, want := range []uint64{100, 101} {
		e, ok := rcq2.Poll()
		if !ok || e.WRID != want || e.Status != StatusFlushErr {
			t.Fatalf("flush completion: %+v ok=%v", e, ok)
		}
	}
	// Sender learns the QP is gone.
	e, ok := scq1.Poll()
	if !ok {
		t.Fatal("sender never completed")
	}
	if e.Status != StatusRemoteAccessErr {
		t.Errorf("sender status = %v, want RemoteAccessErr", e.Status)
	}
	// Posting on a destroyed QP fails; double destroy is a no-op.
	if err := qp2.PostSend(SendWR{Op: OpSend, LocalAddr: dst, LKey: mr2.Key(), Len: 64}); err != ErrNotRTS {
		t.Errorf("post on destroyed QP: %v", err)
	}
	r.pd2.DestroyQP(qp2)
	if r.h2.QP(qp2.QPN()) != nil {
		t.Error("destroyed QP still registered")
	}
}

func TestDestroyQPFlushesPendingSends(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, _, _, _ := r.connect(t, 16)
	src := r.mem1.Alloc(4096, 64)
	mr1, _ := r.pd1.RegisterMR(src, 4096, 0)
	// Queue several sends, then destroy before the engine runs.
	for i := 0; i < 3; i++ {
		_ = qp1.PostSend(SendWR{ID: uint64(i), Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: 64})
	}
	r.pd1.DestroyQP(qp1)
	r.eng.Run()
	// First WQE may already be on the wire (doorbell processing is async);
	// the queued remainder must be flushed.
	flushed := 0
	for {
		e, ok := scq1.Poll()
		if !ok {
			break
		}
		if e.Status == StatusFlushErr {
			flushed++
		}
	}
	if flushed < 2 {
		t.Errorf("flushed %d queued sends, want ≥ 2", flushed)
	}
	if StatusFlushErr.String() != "FlushErr" {
		t.Error("status name")
	}
}

func TestQPRateLimit(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, qp2, _, _ := r.connect(t, 64)
	src := r.mem1.Alloc(1<<20, 64)
	dst := r.mem2.Alloc(1<<20, 64)
	mr1, _ := r.pd1.RegisterMR(src, 1<<20, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 1<<20, AccessRemoteWrite)
	qp1.SetRateLimit(100e6) // 100 MB/s on a 1 GB/s link
	if qp1.RateLimit() != 100e6 {
		t.Fatal("rate limit not recorded")
	}
	// A 1MB write at 100 MB/s takes ~10ms instead of ~1ms.
	_ = qp1.PostSend(SendWR{ID: 1, Op: OpRDMAWrite, LocalAddr: src, LKey: mr1.Key(),
		Len: 1 << 20, RemoteAddr: dst, RKey: mr2.Key()})
	r.eng.Run()
	e, ok := scq1.Poll()
	if !ok {
		t.Fatal("no completion")
	}
	if e.At < 10*sim.Millisecond || e.At > 11*sim.Millisecond {
		t.Errorf("rate-limited 1MB completed at %v, want ~10.5ms", e.At)
	}
	_ = qp2
}

func TestRandomOpsEventuallyComplete(t *testing.T) {
	// Property: with recvs pre-posted and respecting SQ capacity, every
	// posted operation produces exactly one sender completion, whatever
	// the mix of ops, sizes and timing.
	for seed := int64(1); seed <= 5; seed++ {
		r := newRig(t)
		rng := sim.NewRand(seed)
		qp1, scq1, _, qp2, _, rcq2 := r.connect(t, 64)
		src := r.mem1.Alloc(1<<20, 64)
		dst := r.mem2.Alloc(1<<20, 64)
		mr1, _ := r.pd1.RegisterMR(src, 1<<20, AccessLocalWrite)
		mr2, _ := r.pd2.RegisterMR(dst, 1<<20, AccessLocalWrite|AccessRemoteWrite|AccessRemoteRead)
		for i := 0; i < 64; i++ {
			if err := qp2.PostRecv(RecvWR{ID: uint64(i), Addr: dst, LKey: mr2.Key(), Len: 1 << 20}); err != nil {
				t.Fatal(err)
			}
		}
		posted := 0
		for i := 0; i < 50; i++ {
			at := sim.Time(rng.Intn(2_000_000))
			op := []Opcode{OpSend, OpRDMAWrite, OpRDMAWriteImm, OpRDMARead}[rng.Intn(4)]
			size := 1 + rng.Intn(200_000)
			id := uint64(i)
			r.eng.Schedule(at, func() {
				err := qp1.PostSend(SendWR{
					ID: id, Op: op, LocalAddr: src, LKey: mr1.Key(), Len: size,
					RemoteAddr: dst, RKey: mr2.Key(),
				})
				if err == ErrSQFull {
					return // legitimately rejected under backlog
				}
				if err != nil {
					t.Errorf("post %d: %v", id, err)
					return
				}
				posted++
			})
		}
		r.eng.Run()
		completions := 0
		for {
			e, ok := scq1.Poll()
			if !ok {
				break
			}
			if e.Status != StatusOK {
				t.Errorf("seed %d: completion %d status %v", seed, e.WRID, e.Status)
			}
			completions++
		}
		if completions != posted {
			t.Errorf("seed %d: %d posted but %d completed", seed, posted, completions)
		}
		// Drain receiver CQEs (sends and write-with-imm consume recvs).
		for {
			if _, ok := rcq2.Poll(); !ok {
				break
			}
		}
	}
}

func TestInterferenceAcrossQPs(t *testing.T) {
	// Two VMs on host 1 send to host 2 concurrently: the small flow's
	// completion time roughly doubles vs. running alone — the paper's
	// Figure 1 mechanism at HCA level.
	elapsed := func(withBig bool) sim.Time {
		eng := sim.New()
		h1 := New(eng, Config{Node: 1})
		h2 := New(eng, Config{Node: 2})
		sw := fabric.NewSwitch(eng, 100)
		hcas := map[int]*HCA{1: h1, 2: h2}
		for n, h := range hcas {
			h.SetPeerResolver(func(n int) *HCA { return hcas[n] })
			h.SetUplink(fabric.NewLink(eng, "up", testBW, 100, fabric.RoundRobin, sw.Inject))
			hh := h
			sw.AttachNode(n, fabric.NewLink(eng, "down", testBW, 100, fabric.RoundRobin, hh.Deliver))
		}
		memA := guestmem.NewSpace(64 << 20) // VM A on host 1
		memB := guestmem.NewSpace(64 << 20) // VM B on host 1
		memC := guestmem.NewSpace(64 << 20) // receiver on host 2
		pdA, pdB, pdC := h1.AllocPD(memA), h1.AllocPD(memB), h2.AllocPD(memC)

		mk := func(pd *PD, peer *PD, depth int) (*QP, *QP, *CQ) {
			scq, rcq := pd.CreateCQ(64), pd.CreateCQ(64)
			scq2, rcq2 := peer.CreateCQ(64), peer.CreateCQ(64)
			q := pd.CreateQP(scq, rcq, depth, depth)
			q2 := peer.CreateQP(scq2, rcq2, depth, depth)
			_ = q.Connect(peer.hca.Node(), q2.QPN())
			_ = q2.Connect(pd.hca.Node(), q.QPN())
			return q, q2, scq
		}
		qa, _, scqA := mk(pdA, pdC, 16)
		srcA := memA.Alloc(65536, 64)
		dstA := memC.Alloc(65536, 64)
		mrA, _ := pdA.RegisterMR(srcA, 65536, 0)
		mrDA, _ := pdC.RegisterMR(dstA, 65536, AccessRemoteWrite)

		if withBig {
			qb, _, _ := mk(pdB, pdC, 16)
			srcB := memB.Alloc(2<<20, 64)
			dstB := memC.Alloc(2<<20, 64)
			mrB, _ := pdB.RegisterMR(srcB, 2<<20, 0)
			mrDB, _ := pdC.RegisterMR(dstB, 2<<20, AccessRemoteWrite)
			_ = qb.PostSend(SendWR{ID: 1, Op: OpRDMAWrite, LocalAddr: srcB, LKey: mrB.Key(), Len: 2 << 20, RemoteAddr: dstB, RKey: mrDB.Key()})
		}
		_ = qa.PostSend(SendWR{ID: 2, Op: OpRDMAWrite, LocalAddr: srcA, LKey: mrA.Key(), Len: 65536, RemoteAddr: dstA, RKey: mrDA.Key()})
		eng.Run()
		e, ok := scqA.Poll()
		if !ok {
			t.Fatal("no completion")
		}
		return e.At
	}
	solo := elapsed(false)
	shared := elapsed(true)
	ratio := float64(shared) / float64(solo)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("interference ratio = %.2f (solo %v, shared %v), want ~2", ratio, solo, shared)
	}
}

// TestAckPathRoutesRemoteCompletions: with SetAckPath installed, RC acks
// for remote senders leave through the transport hook (which owns the
// return latency) instead of the direct peer call, and ApplyAck lands the
// completion on the sender's CQ. This is the seam a sharded interconnect
// (internal/simpar) uses to keep peers on separate engines.
func TestAckPathRoutesRemoteCompletions(t *testing.T) {
	r := newRig(t)
	qp1, scq1, _, qp2, _, _ := r.connect(t, 16)
	const src, dst = 0x1000, 0x9000
	mr1, _ := r.pd1.RegisterMR(src, 4096, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 4096, AccessLocalWrite)
	if err := qp2.PostRecv(RecvWR{ID: 3, Addr: dst, LKey: mr2.Key(), Len: 4096}); err != nil {
		t.Fatal(err)
	}

	var routed []Ack
	r.h2.SetAckPath(func(srcNode int, a Ack) {
		if srcNode != 1 {
			t.Errorf("ack routed to node %d, want 1", srcNode)
		}
		routed = append(routed, a)
		// The transport's return latency, then delivery on the source side.
		r.eng.After(5*sim.Microsecond, func() { r.h1.ApplyAck(a) })
	})

	payload := bytes.Repeat([]byte{0xab}, 512)
	if err := qp1.PostSend(SendWR{ID: 11, Op: OpSend, LocalAddr: src, LKey: mr1.Key(), Len: len(payload), Payload: payload}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()

	if len(routed) != 1 || routed[0].SrcQPN != qp1.QPN() || routed[0].WRID != 11 || routed[0].Status != StatusOK {
		t.Fatalf("routed acks = %+v", routed)
	}
	se, ok := scq1.Poll()
	if !ok {
		t.Fatal("no send completion through the ack path")
	}
	if se.WRID != 11 || se.Status != StatusOK || se.Opcode != OpSend {
		t.Errorf("send CQE = %+v", se)
	}
	// An ack for a QP that vanished while in flight is dropped, not fatal.
	r.h1.ApplyAck(Ack{SrcQPN: 0xdead, Op: OpSend, Status: StatusOK, WRID: 1})
	r.eng.Shutdown()
}

// TestSendMsgOnePacketAllocation requires segmenting a message to cost
// exactly one packet allocation whatever its MTU count: all of a message's
// packets share one slab.
func TestSendMsgOnePacketAllocation(t *testing.T) {
	eng := sim.New()
	h := New(eng, Config{Node: 1})
	h.SetUplink(fabric.NewLink(eng, "up", testBW, 100, fabric.RoundRobin, func(*fabric.Packet) {}))
	pd := h.AllocPD(guestmem.NewSpace(1 << 20))
	qp := pd.CreateQP(pd.CreateCQ(16), pd.CreateCQ(16), 16, 16)
	if err := qp.Connect(2, 0x99); err != nil {
		t.Fatal(err)
	}
	// The largest message goes first, so the link's queues reach their
	// high-water mark before anything is measured.
	for _, mtus := range []int{64, 1, 2, 17, 64} {
		m := &wireMsg{op: OpSend, srcNode: 1, srcQPN: qp.qpn, dstQPN: 0x99, len: mtus * h.MTU(), total: mtus}
		send := func() {
			qp.sendMsg(m, m.len)
			eng.Run()
		}
		send()
		if allocs := testing.AllocsPerRun(10, send); allocs != 1 {
			t.Errorf("%d-MTU message: %.1f allocations, want 1 (the packet slab)", mtus, allocs)
		}
	}
}
