package sim

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"

	_ "repro/internal/baseline" // register beb, aloha, genie, mw
	_ "repro/internal/core"     // register dba
	_ "repro/internal/nocd"     // register robust, unbounded
)

// arrivalProbe wraps the run's arrival process and listens to the same
// per-slot feedback devices hear, shadowing the engine's bookkeeping
// from outside: it derives the packet IDs the engine will assign (they
// are sequential in injection order), records each packet's inject
// slot, and retires packets as decoding events name them.  It is only
// sound when it is the run's sole injector (no adversary arrivals), in
// which case its view must agree exactly with the Result.
type arrivalProbe struct {
	inner arrival.Process
	t     *testing.T

	nextID   channel.PacketID
	inject   map[channel.PacketID]int64
	peak     int
	injected int64

	silent    int64
	events    int64
	delivered int64
}

func newArrivalProbe(t *testing.T, inner arrival.Process) *arrivalProbe {
	return &arrivalProbe{inner: inner, t: t, inject: make(map[channel.PacketID]int64)}
}

func (p *arrivalProbe) Name() string { return p.inner.Name() }

func (p *arrivalProbe) Injections(now int64, r *rng.Rand) int {
	n := p.inner.Injections(now, r)
	for i := 0; i < n; i++ {
		p.inject[p.nextID] = now
		p.nextID++
	}
	p.injected += int64(n)
	if len(p.inject) > p.peak {
		p.peak = len(p.inject)
	}
	return n
}

func (p *arrivalProbe) NextAfter(now int64) int64 { return p.inner.NextAfter(now) }

// ObserveSlot implements arrival.Observer: the probe hears every
// stepped slot and checks each delivery against its own ledger — a
// packet may only be delivered after it arrived, and only once.
func (p *arrivalProbe) ObserveSlot(fb channel.Feedback) {
	if fb.Silent {
		p.silent++
	}
	if fb.Event == nil {
		return
	}
	p.events++
	p.delivered += int64(len(fb.Event.Packets))
	for _, id := range fb.Event.Packets {
		at, ok := p.inject[id]
		if !ok {
			p.t.Errorf("slot %d: delivery of packet %d, which is not in flight (never injected, or delivered twice)", fb.Slot, id)
			continue
		}
		if fb.Slot < at {
			p.t.Errorf("packet %d delivered at slot %d before its arrival at %d", id, fb.Slot, at)
		}
		delete(p.inject, id)
	}
}

// checkResultInvariants holds any Result to the cross-protocol
// contract: packet conservation, slot-class accounting, and bound
// ordering — properties no protocol/medium/adversary combination may
// violate.
func checkResultInvariants(t *testing.T, res *Result) {
	t.Helper()
	if res.Arrivals != res.Delivered+int64(res.Pending) {
		t.Errorf("conservation: arrivals %d != delivered %d + pending %d",
			res.Arrivals, res.Delivered, res.Pending)
	}
	st := res.Channel
	if st.SilentSlots+st.GoodSlots+st.BadSlots != res.Elapsed {
		t.Errorf("slot accounting: silent %d + good %d + bad %d != elapsed %d",
			st.SilentSlots, st.GoodSlots, st.BadSlots, res.Elapsed)
	}
	if st.JammedSlots > st.BadSlots {
		t.Errorf("jammed slots %d exceed bad slots %d", st.JammedSlots, st.BadSlots)
	}
	if res.Delivered != st.Delivered {
		t.Errorf("deliveries: result %d, channel stats %d", res.Delivered, st.Delivered)
	}
	if st.Events > st.GoodSlots {
		t.Errorf("events %d exceed good slots %d", st.Events, st.GoodSlots)
	}
	if res.MaxBacklog > res.PeakInFlight {
		t.Errorf("backlog peak %d exceeds in-flight peak %d", res.MaxBacklog, res.PeakInFlight)
	}
	if int64(res.PeakInFlight) > res.Arrivals {
		t.Errorf("in-flight peak %d exceeds arrivals %d", res.PeakInFlight, res.Arrivals)
	}
	if res.Delivered > 0 {
		if res.FirstArrival < 0 || res.LastDelivery < res.FirstArrival {
			t.Errorf("delivery at %d before first arrival at %d", res.LastDelivery, res.FirstArrival)
		}
		if res.Latency.Min() < 1 {
			t.Errorf("latency %g below the 1-slot floor", res.Latency.Min())
		}
	}
}

// TestConformanceGrid drives every registered protocol through every
// channel model, adversary, and arrival shape in a compact grid, at
// Workers 0 and 4, and holds each run to the shared invariants — via
// the Result alone, and (when the run has no adversary injector) via an
// independent arrival-side probe that re-derives the bookkeeping from
// the feedback stream and must agree with the Result exactly.
func TestConformanceGrid(t *testing.T) {
	type advCase struct {
		name     string
		adaptive bool // needs truthful silence feedback
		injects  bool // adds arrivals the probe cannot see
		config   func(cfg *Config)
	}
	advs := []advCase{
		{"none", false, false, func(cfg *Config) {}},
		{"random-jam", false, false, func(cfg *Config) { cfg.Jammer = adversary.NewRandom(0.1) }},
		{"reactive", true, false, func(cfg *Config) { cfg.Adversary = adversary.NewReactive(2, 16) }},
		{"sigmarho", false, true, func(cfg *Config) { cfg.Adversary = adversary.NewSigmaRho(40, 0.05) }},
	}
	models := []string{"coded", "classical:ternary", "classical:none", "capture"}
	arrivals := []struct {
		name  string
		build func() arrival.Process
	}{
		{"batch", func() arrival.Process { return &arrival.Batch{At: 0, N: 120} }},
		{"bernoulli", func() arrival.Process { return &arrival.Bernoulli{Rate: 0.15} }},
	}

	for _, info := range protocol.Registered() {
		for _, model := range models {
			if info.CodedOnly && model != "coded" {
				continue
			}
			kappa := 8
			if model == "capture" {
				kappa = 4
			}
			for _, adv := range advs {
				// The engine itself rejects adaptive adversaries on
				// silence-masking media; mirror the sweep skip rule.
				if adv.adaptive && model == "classical:none" {
					continue
				}
				for _, arr := range arrivals {
					for _, workers := range []int{0, 4} {
						name := fmt.Sprintf("%s/%s/%s/%s/w%d", info.Name, model, adv.name, arr.name, workers)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							med, err := medium.New(model, kappa, 0)
							if err != nil {
								t.Fatal(err)
							}
							cfg := Config{
								Kappa:   med.Kappa(),
								Horizon: 2000,
								Drain:   true,
								Seed:    31,
								Workers: workers,
								Medium:  med,
							}
							adv.config(&cfg)
							proto := protocol.Build(info.Name, protocol.Params{
								Kappa: med.Kappa(), Rand: rng.New(41), AlohaP: 0.05,
							})
							var probe *arrivalProbe
							var process arrival.Process = arr.build()
							if !adv.injects {
								probe = newArrivalProbe(t, process)
								process = probe
							}
							res := Run(cfg, proto, process)
							checkResultInvariants(t, res)
							if probe == nil {
								return
							}
							if probe.injected != res.Arrivals {
								t.Errorf("probe saw %d arrivals, result %d", probe.injected, res.Arrivals)
							}
							if len(probe.inject) != res.Pending {
								t.Errorf("probe holds %d undelivered, result pending %d", len(probe.inject), res.Pending)
							}
							if probe.delivered != res.Delivered {
								t.Errorf("probe saw %d deliveries, result %d", probe.delivered, res.Delivered)
							}
							if probe.events != res.Channel.Events {
								t.Errorf("probe saw %d events, channel stats %d", probe.events, res.Channel.Events)
							}
							if probe.peak != res.PeakInFlight {
								t.Errorf("probe in-flight peak %d, result %d", probe.peak, res.PeakInFlight)
							}
							if probe.silent > res.Channel.SilentSlots {
								t.Errorf("probe heard %d silent slots, channel stats only %d",
									probe.silent, res.Channel.SilentSlots)
							}
						})
					}
				}
			}
		}
	}
}
