package main

import (
	"time"

	"repro/internal/arrival"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"

	_ "repro/internal/core" // registers dba
)

// batchE15 is the Theorem 16 run of experiment E15: Decodable Backoff on
// the coded channel, κ = 64, one batch of 10⁶ packets on the serial
// engine, configured exactly as E15 configures it.
type batchE15 struct {
	n     int
	kappa int
	cost  timerCost

	// the repetition in flight
	cfg    sim.Config
	proto  protocol.Protocol
	arr    arrival.Process
	es     *engineStats
	epochs map[protocol.EpochKind]int64
	errs   int64
	res    *sim.Result
	wall   time.Duration
	seed   uint64
	// The previous repetition's seed and Result: a repetition of the same
	// input (the traced twin of an untraced one) must match it byte for
	// byte.
	lastSeed uint64
	lastDump []byte
}

func newBatchE15(opts runOptions) (workload, error) {
	return &batchE15{n: 1_000_000, kappa: 64, cost: opts.cost}, nil
}

func (b *batchE15) setup(seed uint64, traced bool) error {
	b.seed = seed
	params := protocol.Params{Kappa: b.kappa, Rand: rng.New(seed ^ 0xE15)}
	b.es = nil
	if traced {
		b.es = &engineStats{}
		b.epochs = map[protocol.EpochKind]int64{}
		b.errs = 0
		params.EpochObserver = protocol.EpochObserverFunc(func(info protocol.EpochInfo) {
			b.epochs[info.Kind]++
			if info.Error {
				b.errs++
			}
		})
	}
	b.proto = protocol.Build("dba", params)
	// The coded channel E15 gets from a nil Config.Medium, built here so
	// it can be decorated.
	var med medium.Medium = medium.NewCoded(b.kappa, 4*b.kappa)
	b.arr = &arrival.Batch{At: 0, N: b.n}
	if traced {
		b.proto = wrapProtocol(b.proto, b.es)
		med = wrapMedium(med, b.es)
		b.arr = wrapArrival(b.arr, b.es)
	}
	b.cfg = sim.Config{
		Kappa:      b.kappa,
		Horizon:    1,
		Drain:      true,
		DrainLimit: int64(8*b.n) + 1<<20,
		Seed:       seed,
		Medium:     med,
	}
	return nil
}

func (b *batchE15) run(*spanLog, int, int) error {
	t := time.Now()
	b.res = sim.Run(b.cfg, b.proto, b.arr)
	b.wall = time.Since(t)
	return nil
}

func (b *batchE15) discard() { b.proto, b.arr, b.cfg = nil, nil, sim.Config{} }

func (b *batchE15) collect(r *repResult) {
	res := b.res
	b.res = nil
	defer b.discard()
	r.slots = res.Elapsed
	r.ops = []float64{float64(b.wall) / 1e6}
	r.thpt = res.CompletionThroughput()
	r.attempted = res.Arrivals
	r.failed = res.Arrivals - res.Delivered

	if res.Arrivals != int64(b.n) || res.Delivered != int64(b.n) || res.Pending != 0 {
		r.problem("batch_e15: arrivals=%d delivered=%d pending=%d, want %d/%d/0", res.Arrivals, res.Delivered, res.Pending, b.n, b.n)
	}
	if floor := 1 / (1 + 10/float64(b.kappa)); r.thpt < floor {
		r.problem("batch_e15: completion throughput %.6f below the Theorem 16 floor 1/(1+10/κ) = %.6f", r.thpt, floor)
	}
	// Tracing must not change a byte of the Result.
	dump, err := resultJSON(res)
	if err != nil {
		r.problem("batch_e15: %v", err)
	} else if b.lastDump != nil && b.lastSeed == b.seed && string(dump) != string(b.lastDump) {
		r.problem("batch_e15: seed %d: traced and untraced Results differ", b.seed)
	}
	b.lastSeed, b.lastDump = b.seed, dump
	if r.traced {
		engineLayers(r, b.es, res, b.wall, b.cost)
		r.layers["core.epochs_silent"] = float64(b.epochs[protocol.EpochSilent])
		r.layers["core.epochs_successful"] = float64(b.epochs[protocol.EpochSuccessful])
		r.layers["core.epochs_overfull"] = float64(b.epochs[protocol.EpochOverfull])
		r.layers["core.error_epochs"] = float64(b.errs)
	}
}

// engineLayers reports the engine decorators' records for one traced
// sim.Run and checks the slot accounting: every slot is stepped,
// coasted or skipped, exactly once.  Times are net of the timers' own
// cost, as calibrated in cost.
func engineLayers(r *repResult, es *engineStats, res *sim.Result, wall time.Duration, cost timerCost) {
	stepped, coasted, skipped := es.step.calls, es.repeatHits, es.silentAdded
	if stepped+coasted+skipped != res.Elapsed {
		r.problem("slot accounting: stepped %d + coasted %d + skipped %d != elapsed %d", stepped, coasted, skipped, res.Elapsed)
	}
	transmitters, _ := cost.net(es.transmitters)
	observe, _ := cost.net(es.observe)
	inject, _ := cost.net(es.inject)
	wake, _ := cost.net(es.wake)
	med, medCalls := cost.net(es.step, es.feedback, es.repeat)
	arr, arrCalls := cost.net(es.injections, es.nextAfter, es.observeSlot)
	protoCalls := es.transmitters.calls + es.observe.calls + es.inject.calls + es.wake.calls
	untraced := wall.Seconds() - float64(protoCalls+medCalls+arrCalls)*cost.total
	l := r.layers
	l["sim.slots_stepped"] = float64(stepped)
	l["sim.slots_coasted"] = float64(coasted)
	l["sim.slots_skipped"] = float64(skipped)
	l["sim.self_s"] = untraced - transmitters - observe - inject - wake - med - arr
	l["protocol.transmitters_s"] = transmitters
	l["protocol.observe_s"] = observe
	l["protocol.inject_s"] = inject
	l["protocol.wake_s"] = wake
	l["protocol.tx_total"] = float64(es.txTotal)
	l["medium.step_s"] = med
	l["medium.step_calls"] = float64(es.step.calls)
	l["medium.repeat_calls"] = float64(es.repeat.calls)
	l["medium.silent_added"] = float64(es.silentAdded)
	l["arrival.injections_s"] = arr
	l["arrival.nextafter_calls"] = float64(es.nextAfter.calls)
	l["_delivered"] = float64(res.Delivered)
	l["_repeat_hits"] = float64(es.repeatHits)
	l["_good_slots"] = float64(res.Channel.GoodSlots)
	l["_elapsed"] = float64(res.Elapsed)
}
