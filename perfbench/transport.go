package main

import (
	"time"

	"repro/internal/emu"
)

// tTransport decorates one emu.Transport endpoint.  On the coordinator
// side of link 0 it always stamps the send time of every Begin frame,
// which is how the end-to-end slot interval is measured; with timed set
// it also times Send and Recv.  Each endpoint is used by one sender and
// one receiver goroutine, and the fields each of them writes are
// disjoint; they are read only after both have finished.
type tTransport struct {
	in     emu.Transport
	timed  bool
	begins []time.Time // nil unless Begin frames are stamped
	stamp  bool
	send   timer
	recv   timer
}

func (t *tTransport) Send(f *emu.Frame) error {
	if !t.timed && !t.stamp {
		return t.in.Send(f)
	}
	start := time.Now()
	if t.stamp && f.Type == emu.FrameBegin {
		t.begins = append(t.begins, start)
	}
	err := t.in.Send(f)
	if t.timed {
		t.send.since(start)
	}
	return err
}

func (t *tTransport) Recv(timeout time.Duration) (*emu.Frame, error) {
	if !t.timed {
		return t.in.Recv(timeout)
	}
	start := time.Now()
	f, err := t.in.Recv(timeout)
	t.recv.since(start)
	return f, err
}

func (t *tTransport) Stats() emu.ConnStats { return t.in.Stats() }
func (t *tTransport) Close() error         { return t.in.Close() }
