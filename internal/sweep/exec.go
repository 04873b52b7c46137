package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"

	// Protocols are built through the registry; these imports link every
	// implementing package so the axis (and Protocols above) is complete.
	_ "repro/internal/baseline"
	_ "repro/internal/core"
	_ "repro/internal/nocd"
)

const (
	defaultBurstWindow = 16384
	defaultAlohaP      = 0.001
)

// buildProtocol constructs the scenario's protocol through the registry
// with its own rng stream.  For dba, errCount receives the number of
// error epochs (Definition 2) observed over the run.
func (s *Spec) buildProtocol(sc Scenario, seed uint64, errCount *int64) protocol.Protocol {
	alohaP := s.AlohaP
	if alohaP == 0 {
		alohaP = defaultAlohaP
	}
	if _, ok := protocol.Lookup(sc.Protocol); !ok {
		panic(fmt.Sprintf("sweep: unknown protocol %q", sc.Protocol)) // Validate rejects these
	}
	return protocol.Build(sc.Protocol, protocol.Params{
		Kappa:  sc.Kappa,
		Rand:   rng.New(seed),
		AlohaP: alohaP,
		EpochObserver: protocol.EpochObserverFunc(func(info protocol.EpochInfo) {
			if info.Error {
				*errCount++
			}
		}),
	})
}

// buildArrival constructs the scenario's arrival process, mapping the
// uniform rate axis onto each kind's own parameter.
func (s *Spec) buildArrival(sc Scenario) arrival.Process {
	switch sc.Arrival {
	case "batch":
		n := s.BatchN
		if n == 0 {
			n = int(sc.Rate * float64(s.Horizon))
			if n < 1 {
				n = 1
			}
		}
		return &arrival.Batch{At: 0, N: n}
	case "bernoulli":
		return &arrival.Bernoulli{Rate: sc.Rate}
	case "poisson":
		return &arrival.Poisson{Lambda: sc.Rate}
	case "even":
		return arrival.NewEvenPaced(sc.Rate)
	case "burst":
		w := s.BurstWindow
		if w == 0 {
			w = defaultBurstWindow
		}
		per := int(sc.Rate * float64(w))
		if per < 1 {
			per = 1
		}
		return &arrival.WindowBurst{Window: w, PerWindow: per}
	}
	panic(fmt.Sprintf("sweep: unknown arrival %q", sc.Arrival))
}

// parseJammer decodes a jammer descriptor into a fresh jammer, or nil
// for none: "none" (or ""), "random:RATE", or "periodic:PERIOD/BURST" —
// BURST jammed slots at the start of every PERIOD, which is
// adversary.BurstGap{BURST, PERIOD−BURST}.  A zero BURST never jams,
// so it too yields nil and the run composes no jam wrapper.
func parseJammer(desc string) (adversary.Jammer, error) {
	switch {
	case desc == "" || desc == "none":
		return nil, nil
	case strings.HasPrefix(desc, "random:"):
		// The adversary parser is the single source of the rate
		// validation for both axes.
		adv, err := adversary.Parse(desc)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad jammer %q (want random:RATE with RATE in [0,1])", desc)
		}
		return adv.(adversary.Jammer), nil
	case strings.HasPrefix(desc, "periodic:"):
		spec := desc[len("periodic:"):]
		slash := strings.IndexByte(spec, '/')
		if slash < 0 {
			return nil, fmt.Errorf("sweep: bad jammer %q (want periodic:PERIOD/BURST)", desc)
		}
		period, err1 := strconv.ParseInt(spec[:slash], 10, 64)
		burst, err2 := strconv.ParseInt(spec[slash+1:], 10, 64)
		if err1 != nil || err2 != nil || period < 1 || period > adversary.MaxSlotParam || burst < 0 || burst > period {
			return nil, fmt.Errorf("sweep: bad jammer %q (want periodic:PERIOD/BURST with 1 ≤ PERIOD ≤ 2^40, 0 ≤ BURST ≤ PERIOD)", desc)
		}
		if burst == 0 {
			return nil, nil
		}
		return adversary.NewBurstGap(burst, period-burst), nil
	}
	return nil, fmt.Errorf("sweep: unknown jammer %q (want none, random:RATE, or periodic:PERIOD/BURST)", desc)
}

// buildMedium constructs the scenario's channel medium.  The coded
// model returns nil, selecting the engine's default construction from
// Kappa/MaxWindow; classical and capture media are built fresh per
// trial (media are stateful).
func buildMedium(sc Scenario) medium.Medium {
	if sc.Model == "coded" {
		return nil
	}
	m, err := medium.New(sc.Model, sc.Kappa, 0)
	if err != nil {
		panic(err) // Validate rejects unknown models
	}
	return m
}

// config builds the engine configuration for one trial of a cell.
// Adversaries are stateful, so each trial parses its own fresh instance
// from the cell's descriptor.
func (s *Spec) config(sc Scenario, seed uint64) sim.Config {
	jammer, err := parseJammer(sc.Jammer)
	if err != nil {
		panic(err) // Validate rejects bad descriptors
	}
	adv, err := adversary.Parse(sc.Adversary)
	if err != nil {
		panic(err) // Validate rejects bad descriptors
	}
	return sim.Config{
		Kappa:      sc.Kappa,
		MaxWindow:  s.MaxWindow,
		Horizon:    s.Horizon,
		Drain:      !s.NoDrain,
		DrainLimit: s.DrainLimit,
		Seed:       seed,
		// Latency retention is bounded (a seeded reservoir), not the
		// former unconditional full-history tracking whose O(arrivals)
		// allocation dominated large-horizon sweeps.
		LatencySamples: s.LatencySamples,
		Jammer:         jammer,
		Adversary:      adv,
		Medium:         buildMedium(sc),
		// Workers is result-neutral (bit-identical at any value), so it
		// rides outside the cell identity; see cellID.
		Workers: s.Workers,
	}
}
