package emu

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/rng"
)

// Wire segment layout (one UDP datagram each):
//
//	data: [kindData][seq u32 LE][fin u8][payload ≤ maxSegPayload]
//	ack:  [kindAck][cumulative ack u32 LE]
//
// Frames are split into ≤ maxSegPayload data segments (fin marks the
// last) and reassembled in order on the far side, so frames larger than
// a datagram — a dense slot's transmitter list — ship transparently.
// Reliability is go-back-N: the receiver accepts only the in-order
// prefix and acks cumulatively; the sender keeps a bounded window of
// unacked segments (Send blocks when it fills — the send-queue
// backpressure) and retransmits the window when the oldest segment
// outlives the RTO, which adapts to a smoothed RTT (Karn's rule:
// retransmitted segments never feed the estimator).
const (
	kindData = 0x01
	kindAck  = 0x02

	dataHeader    = 6
	maxSegPayload = 1024
	sendWindow    = 64

	initialRTO = 50 * time.Millisecond
	minRTO     = 10 * time.Millisecond
	maxRTO     = 500 * time.Millisecond
	// rttAlpha is the EWMA weight of a new RTT sample.
	rttAlpha = 0.125
	// retransTick is how often the retransmit loop inspects the window.
	retransTick = 5 * time.Millisecond
)

// initialSeq is the sequence number every new link starts at on both
// sides: a test hook that starts links just below the uint32 wrap.
// Always 0 outside tests.
var initialSeq uint32

// seqBefore reports whether sequence number a precedes b in the
// wrapping uint32 space (serial-number order: less than 2³¹ behind).
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Fault is a deterministic datagram fault plan for lossy-transport
// regimes: every outgoing datagram (data and ack alike) is dropped with
// probability DropRate and duplicated with probability DupRate, driven
// by a private stream seeded from Seed.  The zero value is a clean
// link.
type Fault struct {
	DropRate float64
	DupRate  float64
	Seed     uint64
}

func (f Fault) active() bool { return f.DropRate > 0 || f.DupRate > 0 }

// wseg is one unacked outbound segment.
type wseg struct {
	seq       uint32
	pkt       []byte // full datagram, ready to retransmit
	firstSent time.Time
	retrans   bool
}

// udpLink is one reliable frame link over datagrams.  The raw write
// function and the pump feeding handle() are supplied by the endpoint
// (dialer or listener), so the protocol logic is transport-socket
// agnostic — and directly testable against an in-memory lossy pair.
type udpLink struct {
	writeRaw func([]byte) error
	onClose  func()

	mu       sync.Mutex
	space    *sync.Cond // window space freed, or closed
	closed   bool
	sendSeq  uint32
	sendBase uint32
	window   []wseg
	srtt     float64 // milliseconds; 0 until first sample
	rto      time.Duration
	backoff  int

	recvNext uint32
	partial  []byte

	frames chan *Frame
	stats  ConnStats

	frng  *rng.Rand
	fault Fault

	closeCh chan struct{}
}

func newUDPLink(write func([]byte) error, fault Fault, onClose func()) *udpLink {
	l := &udpLink{
		writeRaw: write,
		onClose:  onClose,
		sendSeq:  initialSeq,
		sendBase: initialSeq,
		recvNext: initialSeq,
		rto:      initialRTO,
		frames:   make(chan *Frame, 256),
		fault:    fault,
		closeCh:  make(chan struct{}),
	}
	l.space = sync.NewCond(&l.mu)
	if fault.active() {
		l.frng = rng.New(fault.Seed)
	}
	go l.retransmitLoop()
	return l
}

// transmit writes one datagram through the fault plan.  Callers hold mu.
func (l *udpLink) transmit(pkt []byte) {
	if l.frng != nil {
		if l.fault.DropRate > 0 && l.frng.Float64() < l.fault.DropRate {
			l.stats.FaultDrops++
			return
		}
		if l.fault.DupRate > 0 && l.frng.Float64() < l.fault.DupRate {
			l.stats.FaultDups++
			_ = l.writeRaw(pkt)
		}
	}
	_ = l.writeRaw(pkt)
}

// Send splits the frame into data segments and queues each into the
// go-back-N window, blocking for space — the tru-style send-queue
// backpressure — and transmitting immediately.
func (l *udpLink) Send(f *Frame) error {
	buf := f.Append(nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.stats.FramesSent++
	l.stats.BytesSent += uint64(len(buf))
	for off := 0; ; {
		end := off + maxSegPayload
		fin := byte(0)
		if end >= len(buf) {
			end = len(buf)
			fin = 1
		}
		for len(l.window) >= sendWindow && !l.closed {
			l.space.Wait()
		}
		if l.closed {
			return ErrClosed
		}
		pkt := make([]byte, 0, dataHeader+end-off)
		pkt = append(pkt, kindData)
		pkt = appendU32(pkt, l.sendSeq)
		pkt = append(pkt, fin)
		pkt = append(pkt, buf[off:end]...)
		l.window = append(l.window, wseg{seq: l.sendSeq, pkt: pkt, firstSent: time.Now()})
		l.sendSeq++
		l.stats.SegsSent++
		l.transmit(pkt)
		if fin == 1 {
			return nil
		}
		off = end
	}
}

// handle processes one inbound datagram (called from the endpoint's
// socket pump).
func (l *udpLink) handle(pkt []byte) {
	if len(pkt) < 1 {
		return
	}
	var done []*Frame
	l.mu.Lock()
	switch pkt[0] {
	case kindData:
		if len(pkt) < dataHeader {
			break
		}
		seq := leU32(pkt[1:5])
		fin := pkt[5]
		l.stats.SegsRecv++
		if seq == l.recvNext {
			l.recvNext++
			l.partial = append(l.partial, pkt[dataHeader:]...)
			if fin == 1 {
				f := new(Frame)
				if err := f.Decode(l.partial); err == nil {
					l.stats.FramesRecv++
					l.stats.BytesRecv += uint64(len(l.partial))
					done = append(done, f)
				}
				l.partial = l.partial[:0]
			}
		} else {
			// Duplicate or out-of-order: go-back-N keeps only the in-order
			// prefix; the cumulative re-ack below tells the sender where
			// to resume.
			l.stats.DupSegs++
		}
		ack := []byte{kindAck, 0, 0, 0, 0}
		putU32(ack[1:5], l.recvNext)
		l.transmit(ack)
	case kindAck:
		if len(pkt) < 5 {
			break
		}
		l.ackLocked(leU32(pkt[1:5]))
	}
	closed := l.closed
	l.mu.Unlock()
	for _, f := range done {
		if closed {
			return
		}
		select {
		case l.frames <- f:
		case <-l.closeCh:
			return
		}
	}
}

// ackLocked advances the send window to the cumulative ack.
func (l *udpLink) ackLocked(ack uint32) {
	freed := false
	for len(l.window) > 0 && seqBefore(l.window[0].seq, ack) {
		seg := l.window[0]
		l.window = l.window[1:]
		freed = true
		if !seg.retrans {
			// Karn's rule: only never-retransmitted segments sample RTT.
			sample := float64(time.Since(seg.firstSent)) / float64(time.Millisecond)
			if l.srtt == 0 {
				l.srtt = sample
			} else {
				l.srtt = (1-rttAlpha)*l.srtt + rttAlpha*sample
			}
			l.stats.RTTMillis = l.srtt
		}
	}
	if freed {
		l.sendBase = ack
		l.backoff = 0
		l.rto = clampRTO(time.Duration(2 * l.srtt * float64(time.Millisecond)))
		l.space.Broadcast()
	}
}

func clampRTO(d time.Duration) time.Duration {
	if d < minRTO {
		return minRTO
	}
	if d > maxRTO {
		return maxRTO
	}
	return d
}

// retransmitLoop watches the window and, when its oldest segment
// outlives the RTO, resends every unacked segment (go-back-N) with
// exponential RTO backoff until acks resume.
func (l *udpLink) retransmitLoop() {
	ticker := time.NewTicker(retransTick)
	defer ticker.Stop()
	for {
		select {
		case <-l.closeCh:
			return
		case <-ticker.C:
		}
		l.mu.Lock()
		if len(l.window) > 0 {
			rto := l.rto << l.backoff
			if rto > maxRTO {
				rto = maxRTO
			}
			if time.Since(l.window[0].firstSent) > rto {
				for i := range l.window {
					l.window[i].retrans = true
					l.stats.Retransmits++
					l.transmit(l.window[i].pkt)
				}
				if l.backoff < 6 {
					l.backoff++
				}
				// Restart the clock so the next round waits a full
				// backed-off RTO from this retransmission.
				l.window[0].firstSent = time.Now()
			}
		}
		l.mu.Unlock()
	}
}

func (l *udpLink) Recv(timeout time.Duration) (*Frame, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case f := <-l.frames:
		return f, nil
	case <-timer:
		return nil, ErrTimeout
	case <-l.closeCh:
		select {
		case f := <-l.frames:
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (l *udpLink) Stats() ConnStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.SendQueue = len(l.window)
	s.RecvQueue = len(l.frames)
	return s
}

func (l *udpLink) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.space.Broadcast()
	close(l.closeCh)
	l.mu.Unlock()
	if l.onClose != nil {
		l.onClose()
	}
	return nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// DialUDP connects a station to a coordinator's UDP listener and
// returns the reliable frame link over it.
func DialUDP(addr string, fault Fault) (Transport, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emu: dial %s: %w", addr, err)
	}
	l := newUDPLink(
		func(b []byte) error { _, err := conn.Write(b); return err },
		fault,
		func() { conn.Close() },
	)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			l.handle(buf[:n])
		}
	}()
	return l, nil
}

// Listener is the coordinator's UDP endpoint: one socket, one reliable
// link per station address, links surfaced in Hello-arrival order via
// Accept.
type Listener struct {
	conn  *net.UDPConn
	fault Fault

	mu     sync.Mutex
	links  map[string]*udpLink
	nlinks uint64
	closed bool

	accept  chan Transport
	closeCh chan struct{}
}

// ListenUDP binds the coordinator's socket.  addr is host:port
// (port 0 picks a free port; see Addr).
func ListenUDP(addr string, fault Fault) (*Listener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emu: listen %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("emu: listen %s: %w", addr, err)
	}
	ln := &Listener{
		conn:    conn,
		fault:   fault,
		links:   make(map[string]*udpLink),
		accept:  make(chan Transport, 64),
		closeCh: make(chan struct{}),
	}
	go ln.pump()
	return ln, nil
}

// Addr returns the bound address (useful with port 0).
func (ln *Listener) Addr() string { return ln.conn.LocalAddr().String() }

func (ln *Listener) pump() {
	buf := make([]byte, 64<<10)
	for {
		n, raddr, err := ln.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		key := raddr.String()
		ln.mu.Lock()
		l, ok := ln.links[key]
		if !ok && !ln.closed {
			peer := *raddr
			fault := ln.fault
			// Decorrelate each link's fault stream; a shared stream
			// would make one link's traffic perturb another's losses.
			fault.Seed = ln.fault.Seed ^ (0x9e3779b97f4a7c15 * (ln.nlinks + 1))
			ln.nlinks++
			l = newUDPLink(
				func(b []byte) error { _, err := ln.conn.WriteToUDP(b, &peer); return err },
				fault,
				nil,
			)
			ln.links[key] = l
			select {
			case ln.accept <- l:
			default:
				// Accept backlog full: refuse the link rather than block
				// the pump.
				delete(ln.links, key)
				l.Close()
				l = nil
			}
		}
		ln.mu.Unlock()
		if l != nil {
			l.handle(buf[:n])
		}
	}
}

// Accept returns the next station link (created on its first datagram
// — in practice the Hello retransmitted until acked).
func (ln *Listener) Accept(timeout time.Duration) (Transport, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case l := <-ln.accept:
		return l, nil
	case <-timer:
		return nil, ErrTimeout
	case <-ln.closeCh:
		return nil, ErrClosed
	}
}

// Close tears down the socket and every link.
func (ln *Listener) Close() error {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return nil
	}
	ln.closed = true
	links := make([]*udpLink, 0, len(ln.links))
	for _, l := range ln.links {
		links = append(links, l)
	}
	ln.mu.Unlock()
	close(ln.closeCh)
	for _, l := range links {
		l.Close()
	}
	return ln.conn.Close()
}
