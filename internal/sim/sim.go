// Package sim is the discrete-round simulation engine: it wires an
// arrival process, a contention-resolution protocol, and a channel
// medium together, slot by slot, and collects the measurements the
// experiments report (backlog, latency, throughput, slot classes).  The
// medium defaults to the Coded Radio Network Model; Config.Medium swaps
// in any other channel model (see internal/medium).
//
// The engine fast-forwards through provably idle stretches (no pending
// packets and no arrivals, or — for protocols that declare their next
// wake-up — no transmissions), so batch-latency experiments over sparse
// horizons cost time proportional to activity, not wall-clock slots.
package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/adversary"
	"repro/internal/arena"
	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Config parametrizes one simulation run.
type Config struct {
	// Kappa is the channel's decoding threshold (≥ 1).  Ignored when
	// Medium is set (the medium knows its own threshold).
	Kappa int
	// MaxWindow caps decoding-window length; 0 selects the default 4κ
	// (the paper shows O(κ) windows suffice).  Use NoWindowCap for an
	// unbounded window.
	MaxWindow int
	// Horizon is the number of slots during which arrivals occur.
	Horizon int64
	// Drain keeps simulating after Horizon until the system empties (or
	// DrainLimit extra slots pass), so completion metrics cover every
	// injected packet.
	Drain bool
	// DrainLimit bounds the drain phase; 0 means max(16×Horizon, 2^20)
	// extra slots — generous enough for batch experiments that use a
	// 1-slot horizon, while still guaranteeing termination when a
	// protocol is stuck.
	DrainLimit int64
	// Seed drives the arrival process randomness.  (Protocols hold their
	// own rng, so one protocol's consumption cannot perturb arrivals.)
	Seed uint64
	// SeriesCap bounds the retained backlog time series (0 = 2048).
	SeriesCap int
	// LatencySamples bounds the per-packet latencies retained for
	// Result.LatencyQuantile: 0 selects a DefaultLatencySamples-slot
	// seeded reservoir, a positive value a reservoir of that capacity,
	// and LatencySamplesOff (any negative value) disables retention
	// entirely (quantiles are NaN; the Latency summary still
	// accumulates).  Memory is O(LatencySamples) regardless of total
	// arrivals; runs that deliver no more packets than the capacity
	// retain every latency, so their quantiles are exact.
	LatencySamples int
	// Jammer optionally spoils slots with noise (failure injection; see
	// package adversary).  The engine composes it over the medium via
	// medium.Jam, below Adversary and with its own seed salt, so a
	// Jammer and a jamming Adversary stack with decorrelated randomness.
	// Jammed slots are audibly busy and decode-useless, and jam
	// decisions are slot-keyed, so they are identical whether or not
	// idle stretches in between were fast-forwarded.  (Fast-forwarded
	// stretches themselves are not consulted for jamming: an empty
	// system ignores noise.)  An adaptive Jammer, like an adaptive
	// Adversary, needs a medium that exposes idle slots truthfully.
	// Jammers are stateful: construct one per run.
	Jammer adversary.Jammer
	// Medium selects the channel model the run uses; nil selects the
	// coded κ-threshold channel built from Kappa and MaxWindow.  Media
	// are stateful: construct one per run, never share across
	// concurrent runs.  See internal/medium for the implementations.
	Medium medium.Medium
	// Adversary optionally disrupts the run (see internal/adversary).  A
	// jamming adversary is composed over the medium exactly like Jammer,
	// on top of it (slot-keyed randomness, adaptive state fed by
	// per-slot feedback); an arrival adversary's injections are merged
	// with the configured arrival process, subject to the same Horizon.
	// Adversaries are stateful: construct one per run, never share
	// across concurrent runs.
	Adversary adversary.Adversary
	// Workers selects the execution path for the per-slot station work.
	// 0 runs the serial legacy slot loop, which stays the reference.
	// W ≥ 1 runs the staged shard/step/reduce engine, fanning the
	// per-shard transmit-collect and feedback stages out over up to W
	// goroutines when the protocol implements protocol.Partitioned (a
	// non-partitioned protocol falls back to the serial path regardless).
	// Results are bit-identical for every value — the Partitioned
	// contract pins the RNG stream and the transmitter order to the
	// serial cycle — so Workers is a pure wall-clock knob: it is
	// deliberately excluded from sweep cell identities.
	Workers int
}

// NoWindowCap disables the decoding-window length cap.
const NoWindowCap = -1

// DefaultLatencySamples is the latency-reservoir capacity selected by
// Config.LatencySamples = 0.  It is sized so quick-scale runs (and the
// committed benchmark grid) deliver fewer packets than the capacity and
// therefore keep exact quantiles, while bounding retention at any n.
const DefaultLatencySamples = 16384

// LatencySamplesOff disables per-run latency retention in
// Config.LatencySamples: Result.LatencySample stays nil and
// LatencyQuantile returns NaN.
const LatencySamplesOff = -1

func (c *Config) maxWindow() int {
	switch {
	case c.MaxWindow == NoWindowCap:
		return 0
	case c.MaxWindow == 0:
		return 4 * c.Kappa
	default:
		return c.MaxWindow
	}
}

// Result holds the measurements of one run.
type Result struct {
	Protocol string
	Arrival  string
	Medium   string // channel-model name, e.g. "coded" or "classical:ternary"
	Kappa    int
	Horizon  int64

	Arrivals  int64
	Delivered int64
	Pending   int // backlog when the run ended

	FirstArrival int64 // -1 if none
	LastDelivery int64 // -1 if none
	Elapsed      int64 // total slots simulated (including drain)

	MaxBacklog int
	// PeakInFlight is the high-water mark of the packets the engine has
	// injected but not yet seen delivered.  The engine's per-packet
	// bookkeeping is one live bit per such packet plus at most two
	// inject-slot records per packet, freed on delivery, so engine
	// memory is proportional to this — which tracks MaxBacklog — never
	// to total arrivals.
	PeakInFlight  int
	BacklogSeries *stats.Series

	Latency stats.Summary // per delivered packet, in slots
	// LatencySample is the bounded, seeded latency reservoir backing
	// LatencyQuantile (nil if Config.LatencySamples was negative).
	LatencySample *stats.Reservoir

	Channel channel.Stats
}

// CompletionThroughput is delivered packets per slot over the span from
// first arrival to last delivery — the batch throughput measure
// (Theorem 16 asks completion time n(1+10/κ)+O(κ), i.e. throughput → 1).
func (r *Result) CompletionThroughput() float64 {
	if r.Delivered == 0 || r.LastDelivery < r.FirstArrival {
		return 0
	}
	return float64(r.Delivered) / float64(r.LastDelivery-r.FirstArrival+1)
}

// LatencyQuantile returns the q-quantile of packet latency from the
// bounded latency reservoir (NaN with retention disabled or before the
// first delivery).  Quantiles are exact while deliveries fit the
// reservoir capacity, estimates from a uniform subsample beyond it.
func (r *Result) LatencyQuantile(q float64) float64 {
	if r.LatencySample == nil || r.LatencySample.Len() == 0 {
		return math.NaN()
	}
	return r.LatencySample.Quantile(q)
}

// SegmentMeanBacklog averages the backlog series over the fraction range
// [from, to) of the simulated span — used by stability detection (e.g.
// compare [0.4,0.5) against [0.9,1.0)).
func (r *Result) SegmentMeanBacklog(from, to float64) float64 {
	s := r.BacklogSeries
	if s == nil || s.Len() == 0 {
		return 0
	}
	loT := int64(from * float64(r.Elapsed))
	hiT := int64(to * float64(r.Elapsed))
	var sum float64
	var n int
	for i := 0; i < s.Len(); i++ {
		if s.T[i] >= loT && s.T[i] < hiT {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// jamSeedSalt decorrelates the jammer's slot-keyed randomness from the
// arrival stream, which uses Config.Seed directly.
const jamSeedSalt = 0x4a4d // "JM"

// advSeedSalt decorrelates an adversary's slot-keyed randomness from
// both the arrival stream and a Config.Jammer composed in the same run.
const advSeedSalt = 0x414456 // "ADV"

// latSeedSalt decorrelates the latency reservoir's replacement stream
// from every other consumer of Config.Seed.
const latSeedSalt = 0x4c4154 // "LAT"

// inflight tracks the packets injected but not yet delivered and
// recovers each one's inject slot on delivery, in memory proportional
// to the instantaneous backlog (peak records the high-water mark) —
// never to total arrivals — which is what lets batch runs scale to
// millions of packets in bounded memory.
//
// It stores no per-packet value.  Packet IDs are issued sequentially
// and inject slots never decrease, so the slot of any live ID follows
// from a short list of runs, one per injecting slot: a 10⁶-packet batch
// is one run, a Bernoulli stream about one per arrival slot.  A
// delivery finds its run by binary search.  Runs whose IDs have all
// been delivered are dropped once they are the majority, so the list
// holds at most twice as many runs as live packets, however long one
// packet starves.  The live set (one bit per ID on recycled pages)
// keeps a duplicate or unknown delivery a loud failure.
type inflight struct {
	live arena.Set
	runs []injectRun // ascending by first; every live ID's run is listed
	dead int         // runs in the list with no live ID left
	peak int
}

// injectRun is the IDs one slot injected: first, first+1, ... up to the
// next run's first.
type injectRun struct {
	first int64 // first packet ID of the run
	slot  int64 // the slot that injected it
	live  int   // IDs of the run not yet delivered
}

func newInflight() *inflight { return &inflight{} }

// add records n packets with sequential IDs from first, injected at the
// given slot.
func (f *inflight) add(first channel.PacketID, n int, slot int64) {
	for id := int64(first); id < int64(first)+int64(n); id++ {
		f.live.Put(id)
	}
	f.runs = append(f.runs, injectRun{first: int64(first), slot: slot, live: n})
	f.peak = max(f.peak, f.live.Len())
}

// take returns a packet's inject slot and forgets the packet.
func (f *inflight) take(id channel.PacketID) int64 {
	if !f.live.Delete(int64(id)) {
		panic(fmt.Sprintf("sim: delivery of unknown packet %d", id))
	}
	// id's run is the last one starting at or before it: a dropped run
	// held only delivered IDs, so it never stood between.
	lo, hi := 0, len(f.runs)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if f.runs[mid].first <= int64(id) {
			lo = mid
		} else {
			hi = mid
		}
	}
	r := &f.runs[lo]
	r.live--
	slot := r.slot
	if r.live == 0 {
		f.dead++
		if 2*f.dead > len(f.runs) {
			f.runs = slices.DeleteFunc(f.runs, func(r injectRun) bool { return r.live == 0 })
			f.dead = 0
		}
	}
	return slot
}

// Run simulates one execution: the Loop adjudicates each slot (medium
// composition, arrivals, feedback, accounting, fast-forward) while Run
// executes the protocol through the serial or staged stepper.
func Run(cfg Config, proto protocol.Protocol, arr arrival.Process) *Result {
	l := NewLoop(cfg, proto.Name(), arr)
	m := l.Medium()
	st := newStepper(cfg.Workers, proto)

	// Event-driven fast-forward through runs of identical bad slots:
	// when a slot classifies Bad and the protocol guarantees its
	// transmitter set frozen (protocol.Coaster), subsequent slots up to
	// coastEnd replay the bad slot in O(1) via medium.Repeater instead of
	// re-collecting and re-validating thousands of transmitters.  Every
	// coasted slot still runs arrivals, feedback, Observe, and per-slot
	// accounting, so results — including RNG streams — are unchanged.
	rep, _ := m.(medium.Repeater)
	coastEnd := int64(-1)

	for l.Running(st.pending()) {
		now := l.Now()
		// Arrivals (only before the horizon).
		if ids := l.InjectNow(); len(ids) > 0 {
			proto.Inject(now, ids)
		}
		// One channel slot: prepare + transmit-collect and the medium step
		// (or an O(1) replay while coasting through repeated bad slots),
		// then feedback fan-out + reduce.
		var class channel.SlotClass
		var ev *channel.Event
		if rep != nil && now <= coastEnd && rep.StepRepeat(now) {
			class, ev = channel.Bad, nil
		} else {
			class, ev = st.step(now, m)
		}
		st.observe(l.Observe(ev))
		backlog := st.pending()
		l.Record(backlog)

		// Arm (or re-arm) the coast.  Checked after the slot's observe so
		// the protocol's epoch state is current; any non-Bad slot kills the
		// coast, because only bad slots leave detector state untouched.
		if class == channel.Bad && rep != nil {
			coastEnd = st.coastUntil(now)
		} else {
			coastEnd = now
		}

		// Advance, fast-forwarding when provably nothing happens; the
		// protocol's wake declaration only counts while not coasting.
		var wake func(int64) int64
		if coastEnd <= now && st.hasWaker() {
			wake = st.nextWake
		}
		if !l.Advance(backlog, wake) {
			break
		}
	}
	return l.Finish(st.pending())
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s on %s κ=%d: arrivals=%d delivered=%d pending=%d maxBacklog=%d thpt=%.3f",
		r.Protocol, r.Arrival, r.Medium, r.Kappa, r.Arrivals, r.Delivered, r.Pending,
		r.MaxBacklog, r.CompletionThroughput())
}
