package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/sim"
)

// Timeouts of the emulation, as crnemu sets them by default.
const (
	emuSlotTimeout    = 10 * time.Second
	emuStationTimeout = 2 * emuSlotTimeout
	emuDrainTimeout   = 2 * time.Second
)

// emuUDP runs crnemu's swarm mode over loopback UDP: a coordinator and
// three station goroutines in this process, dba on the coded channel,
// κ = 8, one batch of 10⁴ packets, no fault injection.  The links are
// set up here rather than by emu.Run so they can be decorated.
type emuUDP struct {
	cfg emu.Config
	// emu.SimReference's Result for refSeed
	refSeed   uint64
	want      []byte
	wantSlots int64

	// the repetition in flight
	ln       *emu.Listener
	coord    []*tTransport
	station  []*tTransport
	stWall   []time.Duration
	stErrs   []error
	wg       sync.WaitGroup
	res      *sim.Result
	coordErr error
	wall     time.Duration
}

func newEmuUDP(opts runOptions) (workload, error) {
	cfg := emu.Config{
		Protocol:  "dba",
		Medium:    "coded",
		Kappa:     8,
		Arrival:   "batch",
		BatchN:    10_000,
		Horizon:   100_000,
		Drain:     true,
		Stations:  3,
		Transport: "udp",
	}
	return &emuUDP{cfg: cfg}, nil
}

// reference computes the simulator's Result for the repetition's
// configuration, the output the emulation must reproduce.
func (e *emuUDP) reference() error {
	if e.want != nil && e.refSeed == e.cfg.Seed {
		return nil
	}
	ref, err := emu.SimReference(e.cfg)
	if err != nil {
		return err
	}
	e.want, err = resultJSON(ref)
	if err != nil {
		return err
	}
	e.refSeed, e.wantSlots = e.cfg.Seed, ref.Elapsed
	return nil
}

// setup covers the UDP listen, dial and accept of every station link.
func (e *emuUDP) setup(seed uint64, traced bool) error {
	e.cfg.Seed = seed
	n := e.cfg.Stations
	ln, err := emu.ListenUDP("127.0.0.1:0", emu.Fault{})
	if err != nil {
		return err
	}
	e.ln = ln
	e.coord = make([]*tTransport, 0, n)
	e.station = make([]*tTransport, n)
	e.stWall = make([]time.Duration, n)
	e.stErrs = make([]error, n)
	for i := 0; i < n; i++ {
		t, err := emu.DialUDP(ln.Addr(), emu.Fault{})
		if err != nil {
			e.discard()
			return err
		}
		st := &tTransport{in: t, timed: traced}
		e.station[i] = st
		e.wg.Add(1)
		go func(i int) {
			defer e.wg.Done()
			defer st.Close()
			start := time.Now()
			e.stErrs[i] = emu.RunStation(st, emuStationTimeout)
			e.stWall[i] = time.Since(start)
		}(i)
	}
	for i := 0; i < n; i++ {
		t, err := ln.Accept(emuStationTimeout)
		if err != nil {
			e.discard()
			return fmt.Errorf("accepting station %d: %w", i, err)
		}
		// Link 0 always stamps its Begin frames: their intervals are the
		// end-to-end slot times.
		e.coord = append(e.coord, &tTransport{in: t, timed: traced, stamp: i == 0})
	}
	return nil
}

func (e *emuUDP) run(spans *spanLog, rep, parent int) error {
	links := make([]emu.Transport, len(e.coord))
	for i, t := range e.coord {
		links[i] = t
	}
	start := time.Now()
	e.res, e.coordErr = emu.Coordinate(context.Background(), e.cfg, links)
	e.wall = time.Since(start)
	return e.coordErr
}

// discard tears the repetition's links down and waits for its stations.
func (e *emuUDP) discard() {
	if e.coordErr == nil && e.res != nil {
		// Let the final Done frames be acknowledged before closing.
		deadline := time.Now().Add(emuDrainTimeout)
		for _, t := range e.coord {
			for t.Stats().SendQueue > 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	for _, t := range e.coord {
		t.Close()
	}
	for _, t := range e.station {
		if t != nil {
			t.Close()
		}
	}
	if e.ln != nil {
		e.ln.Close()
	}
	e.wg.Wait()
}

func (e *emuUDP) collect(r *repResult) {
	coordStats := make([]emu.ConnStats, len(e.coord))
	e.discard()
	for i, t := range e.coord {
		coordStats[i] = t.Stats()
	}
	res := e.res
	e.res, e.coordErr = nil, nil
	if err := e.reference(); err != nil {
		r.problem("emu_udp: reference run: %v", err)
		return
	}
	if res == nil {
		// The whole emulation is lost: count the reference's slots.
		r.attempted, r.failed = e.wantSlots, e.wantSlots
		return
	}
	r.slots = res.Elapsed
	r.attempted = res.Elapsed
	r.thpt = res.CompletionThroughput()
	for i, err := range e.stErrs {
		if err != nil && !errors.Is(err, emu.ErrClosed) {
			r.problem("emu_udp: station %d: %v", i, err)
		}
	}
	dump, err := resultJSON(res)
	if err != nil {
		r.problem("emu_udp: %v", err)
	} else if string(dump) != string(e.want) {
		r.failed = res.Elapsed
		r.problem("emu_udp: emulated Result differs from emu.SimReference")
	}
	begins := e.coord[0].begins
	for i := 1; i < len(begins); i++ {
		us := float64(begins[i].Sub(begins[i-1])) / 1e3
		r.ops = append(r.ops, us/1e3)
		r.slotIntervals = append(r.slotIntervals, us)
	}
	if !r.traced {
		return
	}
	l := r.layers
	var send, recv time.Duration
	var bytes, frames, segs, rtt float64
	for i, t := range e.coord {
		s := coordStats[i]
		send += time.Duration(t.send.ns)
		recv += time.Duration(t.recv.ns)
		l["emu.frames_sent"] += float64(s.FramesSent)
		l["emu.frames_recv"] += float64(s.FramesRecv)
		bytes += float64(s.BytesSent + s.BytesRecv)
		frames += float64(s.FramesSent + s.FramesRecv)
		segs += float64(s.SegsSent + s.SegsRecv)
		rtt += s.RTTMillis
		l["udp.retransmits"] += float64(s.Retransmits)
		l["udp.dup_segs"] += float64(s.DupSegs)
	}
	for i, t := range e.station {
		s := t.Stats()
		l["udp.retransmits"] += float64(s.Retransmits)
		l["udp.dup_segs"] += float64(s.DupSegs)
		l["emu.station_recv_wait_s"] += t.recv.seconds()
		l["emu.station_self_s"] += (e.stWall[i] - time.Duration(t.recv.ns) - time.Duration(t.send.ns)).Seconds()
	}
	l["emu.send_s"] = send.Seconds()
	l["emu.recv_wait_s"] = recv.Seconds()
	l["emu.coord_self_s"] = (e.wall - send - recv).Seconds()
	l["_bytes"] = bytes
	l["_begins"] = float64(len(begins))
	l["_segs"] = segs
	l["_frames"] = frames
	l["_rtt_ms"] = rtt
	l["_rtt_n"] = float64(len(e.coord))
}
