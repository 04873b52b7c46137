package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// timer accumulates the calls made across one layer boundary and the
// wall time spent inside them.
type timer struct {
	calls int64
	ns    int64
}

func (t *timer) since(start time.Time) {
	t.calls++
	t.ns += int64(time.Since(start))
}

func (t *timer) seconds() float64 { return float64(t.ns) / 1e9 }

// engineStats is what the protocol, medium and arrival decorators
// record during one sim.Run.  sim.Run drives all three from one
// goroutine on the serial engine, so the fields need no locking; the
// per-shard protocol methods, which the staged engine may call
// concurrently, pass through untimed.
type engineStats struct {
	// protocol
	transmitters, observe, inject, wake timer
	txTotal                             int64
	// medium
	step, feedback          timer
	repeat                  timer
	repeatHits, silentAdded int64
	// arrival
	injections, nextAfter, observeSlot timer
}

// timerCost is what timing one call costs the traced run, in seconds:
// inSpan is the part a timer records as the call's own time, total the
// whole cost, the rest of which falls in the caller.  On batch_e15 the
// decorators time millions of calls, so engineLayers takes both out of
// the layer times and of sim.self_s: the split then reports the
// program's time, not the tracer's.
type timerCost struct {
	inSpan, total float64
}

//go:noinline
func emptyCall() {}

// calibrateTimer measures timerCost on an empty call, timed exactly as
// the decorators time theirs.  It reports the median of several rounds.
func calibrateTimer() timerCost {
	const n, rounds = 1 << 18, 7
	costs := make([]timerCost, rounds)
	for r := range costs {
		var tm timer
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			emptyCall()
			tm.since(t)
		}
		timed := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			emptyCall()
		}
		bare := time.Since(t0)
		costs[r] = timerCost{inSpan: tm.seconds() / n, total: (timed - bare).Seconds() / n}
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].total < costs[j].total })
	return costs[rounds/2]
}

// net is the time the timers ts recorded, less the part timing their
// calls added to it, and the number of calls.
func (c timerCost) net(ts ...timer) (seconds float64, calls int64) {
	for _, t := range ts {
		seconds += t.seconds() - float64(t.calls)*c.inSpan
		calls += t.calls
	}
	return max(seconds, 0), calls
}

// ---- protocol.Protocol ----

// tProto times the calls sim.Run makes into a protocol.  The optional
// capabilities the inner protocol has are exposed by the combination
// types below, chosen in wrapProtocol, so the engine picks the same
// path for the wrapper as for the protocol itself.
type tProto struct {
	in      protocol.Protocol
	s       *engineStats
	waker   protocol.Waker
	coaster protocol.Coaster
	part    protocol.Partitioned
	pwaker  protocol.PartitionedWaker
}

func (p *tProto) Name() string { return p.in.Name() }

func (p *tProto) Inject(now int64, ids []channel.PacketID) {
	t := time.Now()
	p.in.Inject(now, ids)
	p.s.inject.since(t)
}

func (p *tProto) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	t := time.Now()
	buf = p.in.Transmitters(now, buf)
	p.s.transmitters.since(t)
	p.s.txTotal += int64(len(buf))
	return buf
}

func (p *tProto) Observe(fb channel.Feedback) {
	t := time.Now()
	p.in.Observe(fb)
	p.s.observe.since(t)
}

func (p *tProto) Pending() int {
	t := time.Now()
	n := p.in.Pending()
	p.s.wake.since(t)
	return n
}

type wakeMix struct{ p *tProto }

func (m wakeMix) NextWake(now int64) int64 {
	t := time.Now()
	w := m.p.waker.NextWake(now)
	m.p.s.wake.since(t)
	return w
}

type coastMix struct{ p *tProto }

func (m coastMix) CoastUntil(now int64) int64 {
	t := time.Now()
	c := m.p.coaster.CoastUntil(now)
	m.p.s.wake.since(t)
	return c
}

// partMix forwards protocol.Partitioned.  Only the serial stages
// (PrepareSlot, ReduceSlot) are timed: the shard stages may run on
// several goroutines at once.
type partMix struct{ p *tProto }

func (m partMix) Shards() int { return m.p.part.Shards() }

func (m partMix) PrepareSlot(now int64) {
	t := time.Now()
	m.p.part.PrepareSlot(now)
	m.p.s.transmitters.since(t)
}

func (m partMix) ShardTransmitters(now int64, shard int, buf []channel.PacketID) []channel.PacketID {
	return m.p.part.ShardTransmitters(now, shard, buf)
}

func (m partMix) ShardObserve(shard int, fb channel.Feedback) { m.p.part.ShardObserve(shard, fb) }

func (m partMix) ReduceSlot(fb channel.Feedback) {
	t := time.Now()
	m.p.part.ReduceSlot(fb)
	m.p.s.observe.since(t)
}

func (m partMix) ShardPending(shard int) int { return m.p.part.ShardPending(shard) }

type shardWakeMix struct{ p *tProto }

func (m shardWakeMix) ShardNextWake(now int64, shard int) int64 {
	t := time.Now()
	w := m.p.pwaker.ShardNextWake(now, shard)
	m.p.s.wake.since(t)
	return w
}

// One type per capability set the registered protocols have:
// P = Partitioned, W = Waker, C = Coaster, S = PartitionedWaker's
// ShardNextWake.  dba is PC, the beb family PWS, the no-CD schemes P;
// the rest have none.
type (
	protoP struct {
		*tProto
		partMix
	}
	protoPC struct {
		*tProto
		partMix
		coastMix
	}
	protoPWS struct {
		*tProto
		partMix
		wakeMix
		shardWakeMix
	}
)

// wrapProtocol returns a decorator over in that records into s and has
// exactly the optional engine capabilities of in.  It panics on a
// capability set no registered protocol has, rather than hand sim.Run a
// wrapper no test has covered.
func wrapProtocol(in protocol.Protocol, s *engineStats) protocol.Protocol {
	b := &tProto{in: in, s: s}
	b.waker, _ = in.(protocol.Waker)
	b.coaster, _ = in.(protocol.Coaster)
	b.part, _ = in.(protocol.Partitioned)
	b.pwaker, _ = in.(protocol.PartitionedWaker)
	hasP, hasW, hasC, hasS := b.part != nil, b.waker != nil, b.coaster != nil, b.pwaker != nil
	switch {
	case hasP && !hasW && hasC && !hasS:
		return protoPC{b, partMix{b}, coastMix{b}}
	case hasP && hasW && !hasC && hasS:
		return protoPWS{b, partMix{b}, wakeMix{b}, shardWakeMix{b}}
	case hasP && !hasW && !hasC && !hasS:
		return protoP{b, partMix{b}}
	case !hasP && !hasW && !hasC && !hasS:
		return b
	}
	panic(fmt.Sprintf("perfbench: no decorator for protocol %s (%T) with capabilities P=%v W=%v C=%v S=%v", in.Name(), in, hasP, hasW, hasC, hasS))
}

// ---- medium.Medium ----

// tMedium times the calls sim.Run makes into a medium; the combination
// types below add the optional capabilities the inner medium has.
type tMedium struct {
	in      medium.Medium
	s       *engineStats
	sharded medium.Sharded
	rep     medium.Repeater
	mask    interface{ MasksSilence() bool }
}

func (m *tMedium) Name() string { return m.in.Name() }
func (m *tMedium) Kappa() int   { return m.in.Kappa() }

func (m *tMedium) Step(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event) {
	t := time.Now()
	class, ev := m.in.Step(now, txs)
	m.s.step.since(t)
	return class, ev
}

func (m *tMedium) Feedback(fb *channel.Feedback) {
	t := time.Now()
	m.in.Feedback(fb)
	m.s.feedback.since(t)
}

func (m *tMedium) AddSilent(n int64) {
	m.s.silentAdded += n
	m.in.AddSilent(n)
}

func (m *tMedium) Stats() channel.Stats { return m.in.Stats() }
func (m *tMedium) Reset()               { m.in.Reset() }

type shardedMix struct{ m *tMedium }

func (x shardedMix) StepSharded(now int64, chunks [][]channel.PacketID, fan channel.FanOut) (channel.SlotClass, *channel.Event) {
	t := time.Now()
	class, ev := x.m.sharded.StepSharded(now, chunks, fan)
	x.m.s.step.since(t)
	return class, ev
}

type repeatMix struct{ m *tMedium }

func (x repeatMix) StepRepeat(now int64) bool {
	t := time.Now()
	ok := x.m.rep.StepRepeat(now)
	x.m.s.repeat.since(t)
	if ok {
		x.m.s.repeatHits++
	}
	return ok
}

type maskMix struct{ m *tMedium }

func (x maskMix) MasksSilence() bool { return x.m.mask.MasksSilence() }

// One type per capability set the registered media have: S = Sharded,
// R = Repeater, M = MasksSilence.  coded and capture are SR; classical
// and every jammed medium are SRM.
type (
	mediumSR struct {
		*tMedium
		shardedMix
		repeatMix
	}
	mediumSRM struct {
		*tMedium
		shardedMix
		repeatMix
		maskMix
	}
)

// wrapMedium returns a decorator over in that records into s and has
// exactly the optional capabilities of in.  It panics on a capability
// set no registered medium has.
func wrapMedium(in medium.Medium, s *engineStats) medium.Medium {
	b := &tMedium{in: in, s: s}
	b.sharded, _ = in.(medium.Sharded)
	b.rep, _ = in.(medium.Repeater)
	b.mask, _ = in.(interface{ MasksSilence() bool })
	hasS, hasR, hasM := b.sharded != nil, b.rep != nil, b.mask != nil
	switch {
	case hasS && hasR && hasM:
		return mediumSRM{b, shardedMix{b}, repeatMix{b}, maskMix{b}}
	case hasS && hasR:
		return mediumSR{b, shardedMix{b}, repeatMix{b}}
	}
	panic(fmt.Sprintf("perfbench: no decorator for medium %s (%T) with capabilities S=%v R=%v M=%v", in.Name(), in, hasS, hasR, hasM))
}

// ---- arrival.Process ----

// tArrival times the calls sim.Run makes into an arrival process.
type tArrival struct {
	in  arrival.Process
	s   *engineStats
	obs arrival.Observer
}

func (a *tArrival) Name() string { return a.in.Name() }

func (a *tArrival) Injections(now int64, r *rng.Rand) int {
	t := time.Now()
	n := a.in.Injections(now, r)
	a.s.injections.since(t)
	return n
}

func (a *tArrival) NextAfter(now int64) int64 {
	t := time.Now()
	n := a.in.NextAfter(now)
	a.s.nextAfter.since(t)
	return n
}

type arrivalObs struct{ *tArrival }

func (a arrivalObs) ObserveSlot(fb channel.Feedback) {
	t := time.Now()
	a.obs.ObserveSlot(fb)
	a.s.observeSlot.since(t)
}

// wrapArrival returns a decorator over in that records into s and is an
// arrival.Observer exactly when in is one.
func wrapArrival(in arrival.Process, s *engineStats) arrival.Process {
	b := &tArrival{in: in, s: s}
	if obs, ok := in.(arrival.Observer); ok {
		b.obs = obs
		return arrivalObs{b}
	}
	return b
}
