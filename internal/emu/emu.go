// Package emu is the slot-synchronized real-network emulation engine:
// it runs the same contention-resolution protocols the simulator runs,
// but with every station a separate goroutine (or OS process) speaking
// a small framed wire protocol to a coordinator over a pluggable
// Transport — in-proc pipes for swarm mode, reliable UDP with
// tru-style send/receive queues and retransmit-on-timeout for real
// networking.
//
// # Replica design
//
// Every station holds a full replica of the protocol, seeded
// identically, so all replicas march through the same state machine in
// lockstep.  Station i owns the packets whose ID satisfies
// id mod stations == i and reports only those transmitters; the
// coordinator concatenates the reports (channel media are
// transmitter-order-insensitive), adjudicates the slot on the very
// medium.Medium the simulator uses, and broadcasts the resulting
// feedback, which every replica observes identically.  Stations close
// each slot by reporting their replica's backlog (cross-checked for
// divergence) and next wake-up, which the coordinator feeds to the
// simulator's own fast-forward.
//
// Because the coordinator drives sim.Loop — the extracted per-slot
// adjudication core of sim.Run — a run over a lossless transport
// produces a byte-identical *sim.Result to the simulator on the same
// configuration.  That equivalence is the correctness gate (tested in
// this package and in CI); a lossy transport (Fault) is then a new
// robustness regime, not a new code path.
//
// # Slot barrier
//
// Each slot costs two round trips: Begin (slot number + injection
// batch) answered by Decide (owned transmitters), then Feedback
// (silence/collision/decoding event) answered by Report (backlog +
// next wake).  The coordinator never proceeds past the barrier until
// every station has answered or its timeout expires — a dead station
// fails the run loudly with a per-station error, never a hang.
package emu

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const (
	defaultSlotTimeout    = 10 * time.Second
	defaultStationTimeout = 2 * time.Minute
	// doneDrainTimeout bounds how long Run waits for the final Done
	// frames to be acknowledged before tearing links down.
	doneDrainTimeout = 2 * time.Second
)

// Config parametrizes one emulation run.  The scenario fields are a
// scenario.Scenario's, with its meanings, defaults and validity rules
// (DESIGN.md §12); the emulation-only fields select the station
// topology and transport.
type Config struct {
	// Protocol is the registry axis name ("dba", "beb", ...).
	Protocol string
	// Medium is a channel-model descriptor — coded[:K[/W]],
	// classical[:none|binary|ternary], or capture[:K] (see
	// medium.ParseSpec).  Empty selects coded.
	Medium string
	// Kappa is the decoding threshold when the descriptor does not embed
	// one.
	Kappa int
	// MaxWindow caps decoding-window length (0 = default 4κ).
	MaxWindow int

	// Arrival selects the arrival process: batch, bernoulli, poisson,
	// even, or burst.  Rate is its uniform intensity parameter; BatchN
	// overrides the batch size (0 = Rate×Horizon); BurstWindow sets the
	// burst window (0 = scenario.DefaultBurstWindow).
	Arrival     string
	Rate        float64
	BatchN      int
	BurstWindow int
	// AlohaP is slotted ALOHA's transmission probability (0 =
	// scenario.DefaultAlohaP).
	AlohaP float64
	// Adversary optionally disrupts the run ("none", "random:RATE", ...;
	// see adversary.Parse).
	Adversary string

	// Horizon, Drain, DrainLimit, Seed, LatencySamples, and SeriesCap
	// have sim.Config semantics.
	Horizon        int64
	Drain          bool
	DrainLimit     int64
	Seed           uint64
	LatencySamples int
	SeriesCap      int

	// Stations is the number of stations packets are partitioned over
	// (≥ 1).
	Stations int
	// Transport selects swarm mode: "inproc" (default) or "udp"
	// (loopback).  Multi-process runs wire their own transports through
	// Coordinate and RunStation instead.
	Transport string
	// Fault injects datagram faults on UDP links (ignored by inproc).
	Fault Fault
	// SlotTimeout bounds how long the coordinator waits at each slot
	// barrier for one station's answer (0 = 10s).
	SlotTimeout time.Duration
}

// Validate reports the first problem with the station count or the
// scenario (scenario.Scenario.Validate), or nil.
func (c Config) Validate() error {
	_, _, _, err := c.build()
	return err
}

// build validates the configuration and assembles one run through the
// scenario builder: the engine config, the coordinator's protocol
// instance, and the arrivals.  Every call constructs fresh instances —
// call once per run.
func (c Config) build() (sim.Config, protocol.Protocol, arrival.Process, error) {
	if c.Stations < 1 {
		return sim.Config{}, nil, nil, fmt.Errorf("emu: Stations must be at least 1 (got %d)", c.Stations)
	}
	return scenario.Scenario{
		Model:          c.Medium,
		Protocol:       c.Protocol,
		Arrival:        c.Arrival,
		Kappa:          c.Kappa,
		Rate:           c.Rate,
		Adversary:      c.Adversary,
		Horizon:        c.Horizon,
		Drain:          c.Drain,
		DrainLimit:     c.DrainLimit,
		MaxWindow:      c.MaxWindow,
		LatencySamples: c.LatencySamples,
		SeriesCap:      c.SeriesCap,
		BatchN:         c.BatchN,
		BurstWindow:    int64(c.BurstWindow),
		AlohaP:         c.AlohaP,
	}.Build(c.Seed, scenario.ProtocolSeed(c.Seed), nil)
}

// wireConfig is the JSON blob the coordinator sends each station in
// answer to its Hello: everything a replica needs.  Arrivals, medium,
// and adversary stay coordinator-side — stations only ever see
// injection batches and feedback.
type wireConfig struct {
	Protocol  string  `json:"protocol"`
	Kappa     int     `json:"kappa"`   // the medium's κ
	AlohaP    float64 `json:"aloha_p"` // as configured: 0 is the default
	ProtoSeed uint64  `json:"proto_seed"`
	Stations  int     `json:"stations"`
	Index     int     `json:"index"`
}

// StationStats is one station link's transport counters as seen from
// the coordinator.
type StationStats struct {
	Index int
	Conn  ConnStats
}

// Result is one emulation run's outcome: the engine Result — byte-
// identical to the simulator's over a lossless transport — plus the
// per-station transport statistics.
type Result struct {
	Sim      *sim.Result
	Stations []StationStats
}

// SimReference runs the plain simulator on the emulation configuration
// — the reference the lossless gate compares against.
func SimReference(cfg Config) (*sim.Result, error) {
	simCfg, proto, arr, err := cfg.build()
	if err != nil {
		return nil, err
	}
	return sim.Run(simCfg, proto, arr), nil
}

// Run executes one swarm-mode emulation: cfg.Stations station
// goroutines over in-proc pipes (Transport "inproc", the default) or
// loopback UDP ("udp"), coordinated in this process.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stationTimeout := cfg.SlotTimeout
	if stationTimeout <= 0 {
		stationTimeout = defaultStationTimeout
	} else if stationTimeout < defaultStationTimeout {
		// Stations must outwait the coordinator so barrier failures are
		// adjudicated (and reported) coordinator-side.
		stationTimeout = 2 * stationTimeout
	}

	links := make([]Transport, cfg.Stations)
	var wg sync.WaitGroup
	stationErrs := make([]error, cfg.Stations)
	runStation := func(i int, t Transport) {
		defer wg.Done()
		defer t.Close()
		stationErrs[i] = RunStation(t, stationTimeout)
	}

	switch cfg.Transport {
	case "", "inproc":
		for i := range links {
			a, b := NewPipe()
			links[i] = a
			wg.Add(1)
			go runStation(i, b)
		}
	case "udp":
		ln, err := ListenUDP("127.0.0.1:0", cfg.Fault)
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addr := ln.Addr()
		for i := range links {
			fault := cfg.Fault
			if fault.active() {
				// Decorrelate each station's outbound fault stream.
				fault.Seed = cfg.Fault.Seed ^ (0xbf58476d1ce4e5b9 * uint64(i+1))
			}
			t, err := DialUDP(addr, fault)
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go runStation(i, t)
		}
		for i := range links {
			t, err := ln.Accept(stationTimeout)
			if err != nil {
				return nil, fmt.Errorf("emu: accepting station %d/%d: %w", i+1, cfg.Stations, err)
			}
			links[i] = t
		}
	default:
		return nil, fmt.Errorf("emu: unknown transport %q (want inproc or udp)", cfg.Transport)
	}

	res, coordErr := Coordinate(ctx, cfg, links)
	stations := make([]StationStats, len(links))
	for i, t := range links {
		if coordErr == nil {
			drainAcks(t, doneDrainTimeout)
		}
		stations[i] = StationStats{Index: i, Conn: t.Stats()}
		t.Close()
	}
	wg.Wait()
	if coordErr != nil {
		return nil, coordErr
	}
	for i, err := range stationErrs {
		if err != nil && !errors.Is(err, ErrClosed) {
			return nil, fmt.Errorf("emu: station %d: %w", i, err)
		}
	}
	return &Result{Sim: res, Stations: stations}, nil
}

// drainAcks waits until the link's send queue empties (every frame
// acknowledged) or the timeout passes — so the final Done is not lost
// to an immediate Close on a lossy link.
func drainAcks(t Transport, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for t.Stats().SendQueue > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// Coordinate drives one emulation run over already-established station
// links (links[i] becomes station i).  It owns the handshake, the
// per-slot barrier, adjudication via sim.Loop, and teardown frames; it
// does not close the links.
func Coordinate(ctx context.Context, cfg Config, links []Transport) (*sim.Result, error) {
	simCfg, proto, arr, err := cfg.build()
	if err != nil {
		return nil, err
	}
	if len(links) != cfg.Stations {
		return nil, fmt.Errorf("emu: %d links for %d stations", len(links), cfg.Stations)
	}
	timeout := cfg.SlotTimeout
	if timeout <= 0 {
		timeout = defaultSlotTimeout
	}

	// The stations hold the replicas that run; the coordinator's own
	// instance only labels the Result (its Name() may embellish the axis
	// name) and says whether the protocol is a Waker.
	_, isWaker := proto.(protocol.Waker)

	abort := func(err error) error {
		msg := []byte(err.Error())
		for _, t := range links {
			_ = t.Send(&Frame{Type: FrameError, Blob: msg})
		}
		return err
	}

	// Handshake: every station says Hello, and is told who it is.
	for i, t := range links {
		f, err := t.Recv(timeout)
		if err != nil {
			return nil, abort(fmt.Errorf("emu: station %d: awaiting hello: %w", i, err))
		}
		if f.Type == FrameError {
			return nil, fmt.Errorf("emu: station %d: %s", i, f.Blob)
		}
		if f.Type != FrameHello {
			return nil, abort(fmt.Errorf("emu: station %d: expected hello, got %s", i, f.Type))
		}
		blob, err := json.Marshal(wireConfig{
			Protocol:  cfg.Protocol,
			Kappa:     simCfg.Kappa,
			AlohaP:    cfg.AlohaP,
			ProtoSeed: scenario.ProtocolSeed(cfg.Seed),
			Stations:  cfg.Stations,
			Index:     i,
		})
		if err != nil {
			return nil, abort(err)
		}
		if err := t.Send(&Frame{Type: FrameConfig, Blob: blob}); err != nil {
			return nil, abort(fmt.Errorf("emu: station %d: sending config: %w", i, err))
		}
	}

	l := sim.NewLoop(simCfg, proto.Name(), arr)
	m := l.Medium()
	pending := 0
	var txs []channel.PacketID

	// collect gathers one answer frame of the wanted type per station,
	// in station order, failing loudly (with the offending station) on
	// timeout, mismatch, or station-reported error.
	collect := func(slot int64, want FrameType, visit func(i int, f *Frame) error) error {
		for i, t := range links {
			f, err := t.Recv(timeout)
			if err != nil {
				return fmt.Errorf("emu: station %d: awaiting %s for slot %d: %w", i, want, slot, err)
			}
			if f.Type == FrameError {
				return fmt.Errorf("emu: station %d: %s", i, f.Blob)
			}
			if f.Type != want || f.Slot != slot {
				return fmt.Errorf("emu: station %d: expected %s for slot %d, got %s for slot %d",
					i, want, slot, f.Type, f.Slot)
			}
			if err := visit(i, f); err != nil {
				return err
			}
		}
		return nil
	}

	for l.Running(pending) {
		if err := ctx.Err(); err != nil {
			return nil, abort(err)
		}
		now := l.Now()

		// Slot barrier, first round trip: Begin → Decide.  Packet IDs are
		// issued sequentially, so (first, count) broadcasts the batch.
		begin := Frame{Type: FrameBegin, Slot: now}
		if ids := l.InjectNow(); len(ids) > 0 {
			begin.InjFirst = int64(ids[0])
			begin.InjN = int32(len(ids))
		}
		for i, t := range links {
			if err := t.Send(&begin); err != nil {
				return nil, abort(fmt.Errorf("emu: station %d: sending begin for slot %d: %w", i, now, err))
			}
		}
		txs = txs[:0]
		if err := collect(now, FrameDecide, func(i int, f *Frame) error {
			txs = append(txs, f.Txs...)
			return nil
		}); err != nil {
			return nil, abort(err)
		}

		// Adjudicate the slot on the medium.  Station order is irrelevant:
		// media are transmitter-order-insensitive by contract.
		_, ev := m.Step(now, txs)
		fb := l.Observe(ev)

		// Second round trip: Feedback → Report.
		fbFrame := Frame{Type: FrameFeedback, Slot: now, Silent: fb.Silent, Collision: fb.Collision}
		if fb.Event != nil {
			fbFrame.HasEvent = true
			fbFrame.EvSlot = fb.Event.Slot
			fbFrame.WindowStart = fb.Event.WindowStart
			fbFrame.Txs = fb.Event.Packets
		}
		for i, t := range links {
			if err := t.Send(&fbFrame); err != nil {
				return nil, abort(fmt.Errorf("emu: station %d: sending feedback for slot %d: %w", i, now, err))
			}
		}
		var rep Frame
		if err := collect(now, FrameReport, func(i int, f *Frame) error {
			if i == 0 {
				rep = *f
				return nil
			}
			// Replicas are deterministic; any disagreement means a replica
			// diverged (lost frame past the reliable layer, state bug) and
			// the run is invalid.
			if f.Pending != rep.Pending || f.HasWake != rep.HasWake || (f.HasWake && f.NextWake != rep.NextWake) {
				return fmt.Errorf("emu: replica divergence at slot %d: station %d reports pending=%d wake=%v/%d, station 0 reports pending=%d wake=%v/%d",
					now, i, f.Pending, f.HasWake, f.NextWake, rep.Pending, rep.HasWake, rep.NextWake)
			}
			return nil
		}); err != nil {
			return nil, abort(err)
		}
		pending = int(rep.Pending)
		l.Record(pending)

		// The coordinator never coasts (unlike sim.Run) — results are
		// bit-identical either way; coasting is purely a CPU optimization.
		// Wake fast-forward mirrors sim.Run: armed iff the protocol is a
		// Waker; Advance only consults it with a non-empty backlog, and
		// stations only compute it then, so the replicas' NextWake call
		// pattern matches the simulator's exactly.
		var wake func(int64) int64
		if isWaker && rep.HasWake {
			nw := rep.NextWake
			wake = func(int64) int64 { return nw }
		}
		if !l.Advance(pending, wake) {
			break
		}
	}

	for _, t := range links {
		_ = t.Send(&Frame{Type: FrameDone})
	}
	return l.Finish(pending), nil
}

// RunStation speaks the station side of the wire protocol over t: it
// sends Hello, builds its protocol replica from the returned Config,
// answers every slot barrier until Done or Error, and returns the
// run's outcome.  timeout bounds each Recv (0 = 2 minutes) so a dead
// coordinator fails the station loudly instead of hanging it.
func RunStation(t Transport, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultStationTimeout
	}
	fail := func(err error) error {
		_ = t.Send(&Frame{Type: FrameError, Blob: []byte(err.Error())})
		return err
	}
	if err := t.Send(&Frame{Type: FrameHello}); err != nil {
		return err
	}
	f, err := t.Recv(timeout)
	if err != nil {
		return fmt.Errorf("emu: awaiting config: %w", err)
	}
	if f.Type == FrameError {
		return fmt.Errorf("emu: coordinator: %s", f.Blob)
	}
	if f.Type != FrameConfig {
		return fail(fmt.Errorf("emu: expected config, got %s", f.Type))
	}
	var wc wireConfig
	if err := json.Unmarshal(f.Blob, &wc); err != nil {
		return fail(fmt.Errorf("emu: bad config: %w", err))
	}
	if wc.Stations < 1 || wc.Index < 0 || wc.Index >= wc.Stations {
		return fail(fmt.Errorf("emu: bad config: station %d of %d", wc.Index, wc.Stations))
	}
	// The replica comes from the same builder as the coordinator's
	// instance, so a bad protocol, κ or p is an error, not a panic.
	_, proto, _, err := scenario.Scenario{Protocol: wc.Protocol, Kappa: wc.Kappa, AlohaP: wc.AlohaP}.
		Build(0, wc.ProtoSeed, nil)
	if err != nil {
		return fail(fmt.Errorf("emu: bad config: %w", err))
	}
	waker, _ := proto.(protocol.Waker)
	stations := int64(wc.Stations)
	index := int64(wc.Index)

	var buf []channel.PacketID
	var ids []channel.PacketID
	for {
		f, err := t.Recv(timeout)
		if err != nil {
			return fmt.Errorf("emu: awaiting slot frame: %w", err)
		}
		switch f.Type {
		case FrameBegin:
			if f.InjN > 0 {
				ids = ids[:0]
				for k := int32(0); k < f.InjN; k++ {
					ids = append(ids, channel.PacketID(f.InjFirst+int64(k)))
				}
				proto.Inject(f.Slot, ids)
			}
			buf = proto.Transmitters(f.Slot, buf[:0])
			// Report only the owned partition; the other replicas report
			// theirs, and the coordinator reassembles the full set.
			mine := buf[:0]
			for _, id := range buf {
				if int64(id)%stations == index {
					mine = append(mine, id)
				}
			}
			if err := t.Send(&Frame{Type: FrameDecide, Slot: f.Slot, Txs: mine}); err != nil {
				return err
			}
		case FrameFeedback:
			fb := channel.Feedback{Slot: f.Slot, Silent: f.Silent, Collision: f.Collision}
			if f.HasEvent {
				fb.Event = &channel.Event{Slot: f.EvSlot, WindowStart: f.WindowStart, Packets: f.Txs}
			}
			proto.Observe(fb)
			rep := Frame{Type: FrameReport, Slot: f.Slot, Pending: int64(proto.Pending())}
			// NextWake may lazily rewrite protocol state, so replicas call
			// it exactly when the simulator's advance would: non-empty
			// backlog on a Waker protocol.
			if rep.Pending > 0 && waker != nil {
				rep.HasWake = true
				rep.NextWake = waker.NextWake(f.Slot)
			}
			if err := t.Send(&rep); err != nil {
				return err
			}
		case FrameDone:
			return nil
		case FrameError:
			return fmt.Errorf("emu: coordinator: %s", f.Blob)
		default:
			return fail(fmt.Errorf("emu: unexpected %s frame", f.Type))
		}
	}
}
