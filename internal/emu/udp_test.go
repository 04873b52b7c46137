package emu

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestSeqBefore pins the serial-number order the go-back-N window
// acks by, at and across the uint32 wrap.
func TestSeqBefore(t *testing.T) {
	for _, c := range []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{7, 7, false},
		{math.MaxUint32, 0, true}, // the last sequence number precedes the wrap
		{0, math.MaxUint32, false},
		{math.MaxUint32 - 63, 0, true}, // a full window below the wrap
		{math.MaxUint32 - 63, 1, true},
		{1, math.MaxUint32 - 63, false},
		{0, 1<<31 - 1, true},
		{1<<31 - 1, 0, false},
		// Exactly half the space apart each precedes the other; a
		// 64-segment window never gets near it.
		{0, 1 << 31, true},
		{1 << 31, 0, true},
	} {
		if got := seqBefore(c.a, c.b); got != c.want {
			t.Errorf("seqBefore(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// wire is one direction of an in-memory link: the datagrams written
// into it, delivered by hand so tests control order, loss and
// duplication exactly.
type wire struct {
	mu sync.Mutex
	q  [][]byte
}

func (w *wire) write(p []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.q = append(w.q, append([]byte(nil), p...))
	return nil
}

func (w *wire) datagrams() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.q...)
}

// wrapPair is a pair of links whose sequence numbers start at seq: a
// writes into toB, b into toA.
func wrapPair(t *testing.T, seq uint32) (a, b *udpLink, toA, toB *wire) {
	t.Helper()
	initialSeq = seq
	defer func() { initialSeq = 0 }()
	toA, toB = new(wire), new(wire)
	a = newUDPLink(toB.write, Fault{}, nil)
	b = newUDPLink(toA.write, Fault{}, nil)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, toA, toB
}

// TestRecvNextAcrossWrap drives the receiver's in-order cursor through
// 2³²−1 → 0 with a multi-segment frame, a duplicate and an
// out-of-order segment, and checks the cumulative acks and the
// reassembled frames.
func TestRecvNextAcrossWrap(t *testing.T) {
	a, b, toA, toB := wrapPair(t, math.MaxUint32-1)
	// A frame of three segments: seq 2³²−2, 2³²−1, 0.
	big := &Frame{Type: FrameDecide, Slot: 9}
	for len(big.Append(nil)) <= 2*maxSegPayload {
		big.Txs = append(big.Txs, 1)
	}
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Frame{Type: FrameReport, Slot: 10, Pending: 4}); err != nil {
		t.Fatal(err)
	}
	segs := toB.datagrams()
	if len(segs) < 4 {
		t.Fatalf("sent %d segments, want 4", len(segs))
	}
	segs = segs[:4] // retransmissions may follow
	for i, want := range []uint32{math.MaxUint32 - 1, math.MaxUint32, 0, 1} {
		if got := leU32(segs[i][1:5]); got != want {
			t.Fatalf("segment %d has seq %d, want %d", i, got, want)
		}
	}
	lastAck := func() uint32 { q := toA.datagrams(); return leU32(q[len(q)-1][1:5]) }
	b.handle(segs[0])
	b.handle(segs[2]) // out of order: dropped, re-acked at the cursor
	if got := lastAck(); got != math.MaxUint32 {
		t.Fatalf("ack after out-of-order segment = %d, want %d", got, uint32(math.MaxUint32))
	}
	b.handle(segs[1])
	if got := lastAck(); got != 0 {
		t.Fatalf("ack after seq 2³²−1 = %d, want 0 (the cursor wraps)", got)
	}
	b.handle(segs[1]) // duplicate behind the cursor
	if got := lastAck(); got != 0 {
		t.Fatalf("ack after a duplicate = %d, want 0", got)
	}
	b.handle(segs[2])
	b.handle(segs[3])
	if got := lastAck(); got != 2 {
		t.Fatalf("final ack = %d, want 2", got)
	}
	if st := b.Stats(); st.DupSegs != 2 || st.FramesRecv != 2 {
		t.Fatalf("receiver stats %+v, want 2 dup segments and 2 frames", st)
	}
	for _, want := range []*Frame{big, {Type: FrameReport, Slot: 10, Pending: 4}} {
		got, err := b.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Slot != want.Slot || got.Pending != want.Pending || len(got.Txs) != len(want.Txs) {
			t.Fatalf("reassembled %+v, want %+v", got, want)
		}
	}
	// The acks free the sender's window across the wrap.
	for _, ack := range toA.datagrams() {
		a.handle(ack)
	}
	if st := a.Stats(); st.SendQueue != 0 {
		t.Fatalf("sender still holds %d unacked segments after the final ack", st.SendQueue)
	}
}

// TestAckAcrossWrap: a cumulative ack past the wrap frees exactly the
// segments before it, and a stale ack from before the wrap frees none.
func TestAckAcrossWrap(t *testing.T) {
	a, _, _, _ := wrapPair(t, math.MaxUint32-1)
	for i := 0; i < 4; i++ { // seqs 2³²−2, 2³²−1, 0, 1
		if err := a.Send(&Frame{Type: FrameDone}); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ackLocked(math.MaxUint32 - 1) // stale: acks nothing new
	if len(a.window) != 4 {
		t.Fatalf("stale ack freed %d segments", 4-len(a.window))
	}
	a.ackLocked(1) // frees 2³²−2, 2³²−1 and 0
	if len(a.window) != 1 || a.window[0].seq != 1 || a.sendBase != 1 {
		t.Fatalf("after ack 1: window %d segments from seq %d, base %d; want 1 segment from seq 1",
			len(a.window), a.window[0].seq, a.sendBase)
	}
}
