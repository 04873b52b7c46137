// Package scenario turns one run's descriptors into engine inputs: a
// Scenario names a channel model, protocol, arrival kind, κ, rate,
// jammer and adversary plus the run-wide fields, and Build maps it onto
// a sim.Config, a protocol from protocol.Build and an arrival.Process.
// The sweep, the emulator, crnsim and the engine benchmark all build
// their runs here, and Validate owns every validity rule; the sweep's
// grid-skip rules stay with the sweep (DESIGN.md §12).
package scenario

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"

	// Link every protocol-implementing package so the registry is
	// complete wherever scenarios are built.
	_ "repro/internal/baseline"
	_ "repro/internal/nocd"
)

// Defaults for zero AlohaP and BurstWindow (in slots) fields.
const (
	DefaultAlohaP      = 0.001
	DefaultBurstWindow = 16384
)

// protoSeedSalt decorrelates a run's protocol rng stream from its
// engine stream (arrivals, jamming, reservoir); see ProtocolSeed.
const protoSeedSalt = 0x70726f746f636f6c // "protocol"

// ProtocolSeed derives the protocol seed from an engine seed the way
// the sweep executor and the emulator do.
func ProtocolSeed(seed uint64) uint64 { return seed ^ protoSeedSalt }

// Arrivals lists the arrival kinds in canonical order.
var Arrivals = []string{"batch", "bernoulli", "poisson", "even", "burst"}

// Scenario describes one run.  Zero-valued run-wide fields select the
// defaults their comments name.
type Scenario struct {
	// Model is a channel-model descriptor (medium.ParseSpec); "" is
	// the coded channel.
	Model string
	// Protocol is a registry name ("dba", "beb", ...).
	Protocol string
	// Arrival is one of Arrivals; "" is batch.
	Arrival string
	// Kappa is the decoding threshold when Model embeds none.
	Kappa int
	// Rate is the offered load, mapped onto each arrival kind's own
	// parameter: the per-slot probability (bernoulli), intensity
	// (poisson), pace (even), window-fill fraction (burst) or
	// horizon-fill fraction (batch without BatchN).
	Rate float64
	// Jammer is a jammer descriptor (see ParseJammer); "" is none.
	Jammer string
	// Adversary is an adversary descriptor (adversary.Parse); "" is
	// none.
	Adversary string

	// Horizon, Drain, DrainLimit, MaxWindow, LatencySamples and
	// SeriesCap have sim.Config semantics.
	Horizon        int64
	Drain          bool
	DrainLimit     int64
	MaxWindow      int
	LatencySamples int
	SeriesCap      int
	// BatchN is the batch size (0 = Rate×Horizon, at least 1).
	BatchN int
	// BurstWindow is the burst window length (0 = DefaultBurstWindow).
	BurstWindow int64
	// AlohaP is slotted ALOHA's transmission probability (0 =
	// DefaultAlohaP).
	AlohaP float64
}

// Validate reports the first validity rule the scenario breaks, or
// nil: every descriptor parses, no count or length is negative, the
// rate is finite, ALOHA's p lies in [0, 1], and the ModelFits,
// KappaFits and NoiseFits verdicts hold.
func (s Scenario) Validate() error {
	_, err := s.parts()
	return err
}

// Build validates the scenario and assembles one run: the engine
// configuration seeded with seed, the protocol seeded with protoSeed
// (obs, if non-nil, receives its epoch callbacks), and the arrival
// process.  Media, jammers, adversaries, protocols and arrivals are
// stateful, so every run calls Build afresh.
func (s Scenario) Build(seed, protoSeed uint64, obs protocol.EpochObserver) (sim.Config, protocol.Protocol, arrival.Process, error) {
	p, err := s.parts()
	if err != nil {
		return sim.Config{}, nil, nil, err
	}
	horizon := s.Horizon
	if (s.Arrival == "" || s.Arrival == "batch") && horizon < 1 {
		horizon = 1 // the batch lands at slot 0, inside the horizon
	}
	cfg := sim.Config{
		Kappa:          p.kappa,
		MaxWindow:      s.MaxWindow,
		Horizon:        horizon,
		Drain:          s.Drain,
		DrainLimit:     s.DrainLimit,
		Seed:           seed,
		SeriesCap:      s.SeriesCap,
		LatencySamples: s.LatencySamples,
		Jammer:         p.jammer,
		Medium:         p.medium,
		Adversary:      p.adversary,
	}
	alohaP := s.AlohaP
	if alohaP == 0 {
		alohaP = DefaultAlohaP
	}
	proto := protocol.Build(s.Protocol, protocol.Params{
		Kappa:         p.kappa,
		Rand:          rng.New(protoSeed),
		AlohaP:        alohaP,
		EpochObserver: obs,
	})
	return cfg, proto, s.arrivals(), nil
}

// parts holds what validation resolves: the effective κ, and fresh
// instances of the stateful descriptor components.
type parts struct {
	kappa     int
	medium    medium.Medium // nil: the engine's default coded channel
	jammer    adversary.Jammer
	adversary adversary.Adversary
}

// parts checks every validity rule, building the medium, jammer and
// adversary on the way (the silence rule asks the medium itself).
func (s Scenario) parts() (parts, error) {
	var p parts
	ms, err := medium.ParseSpec(s.Model)
	if err != nil {
		return p, err
	}
	info, ok := protocol.Lookup(s.Protocol)
	if !ok {
		return p, fmt.Errorf("scenario: unknown protocol %q (want one of %s)",
			s.Protocol, strings.Join(protocol.Names(), ", "))
	}
	switch {
	case s.Arrival != "" && !slices.Contains(Arrivals, s.Arrival):
		return p, fmt.Errorf("scenario: unknown arrival %q (want one of %s)",
			s.Arrival, strings.Join(Arrivals, ", "))
	case s.Horizon < 0:
		return p, fmt.Errorf("scenario: horizon %d < 0", s.Horizon)
	case s.DrainLimit < 0:
		return p, fmt.Errorf("scenario: drain limit %d < 0", s.DrainLimit)
	case s.BatchN < 0:
		return p, fmt.Errorf("scenario: batch size %d < 0", s.BatchN)
	case s.BurstWindow < 0:
		return p, fmt.Errorf("scenario: burst window %d < 0", s.BurstWindow)
	case !(s.Rate >= 0) || math.IsInf(s.Rate, 1):
		return p, fmt.Errorf("scenario: rate %g is not a finite value ≥ 0", s.Rate)
	case !(s.AlohaP >= 0 && s.AlohaP <= 1):
		return p, fmt.Errorf("scenario: aloha p %g outside [0, 1]", s.AlohaP)
	}
	// A bare "coded" leaves the medium to the engine (window cap 4κ by
	// default); anything else is built here and knows its own κ.
	p.kappa = s.Kappa
	if ms != (medium.Spec{Model: "coded"}) {
		if p.medium, err = ms.Build(s.Kappa, s.MaxWindow); err != nil {
			return p, err
		}
		p.kappa = p.medium.Kappa()
	}
	if err := ModelFits(info, ms); err != nil {
		return p, err
	}
	if err := KappaFits(info, p.kappa); err != nil {
		return p, err
	}
	if p.jammer, err = ParseJammer(s.Jammer); err != nil {
		return p, err
	}
	if p.adversary, err = adversary.Parse(s.Adversary); err != nil {
		return p, err
	}
	masks := p.medium != nil && medium.MasksSilence(p.medium)
	if err := NoiseFits(p.jammer, masks); err != nil {
		return p, err
	}
	// Any jammer spoils idle slots, so the adversary above it sees a
	// masking medium.
	return p, NoiseFits(p.adversary, masks || p.jammer != nil)
}

// arrivals builds the arrival process of a validated scenario, mapping
// the rate onto the kind's own parameter.
func (s Scenario) arrivals() arrival.Process {
	switch s.Arrival {
	case "bernoulli":
		return &arrival.Bernoulli{Rate: s.Rate}
	case "poisson":
		return &arrival.Poisson{Lambda: s.Rate}
	case "even":
		return arrival.NewEvenPaced(s.Rate)
	case "burst":
		w := s.BurstWindow
		if w == 0 {
			w = DefaultBurstWindow
		}
		return &arrival.WindowBurst{Window: w, PerWindow: max(1, int(s.Rate*float64(w)))}
	}
	n := s.BatchN
	if n == 0 {
		n = max(1, int(s.Rate*float64(s.Horizon)))
	}
	return &arrival.Batch{At: 0, N: n}
}

// ModelFits is the protocol/model pairing verdict: nil if the
// protocol runs on the model, else why not.  A coded-only protocol
// (Decodable Backoff) needs the coded model.
func ModelFits(info protocol.Info, model medium.Spec) error {
	if info.CodedOnly && model.Model != "coded" {
		return lazyError(func() string {
			return fmt.Sprintf("scenario: protocol %q runs only on the coded model, not %q", info.Name, model)
		})
	}
	return nil
}

// lazyError formats a failed verdict's message only when read: sweep
// expansion asks for verdicts on every spec parse, and there a failure
// is a skipped cell, not an error.
type lazyError func() string

func (e lazyError) Error() string { return e() }

// KappaFits is the decoding-threshold verdict: every protocol needs
// κ ≥ 1, and Decodable Backoff κ ≥ core.MinKappa.
func KappaFits(info protocol.Info, kappa int) error {
	if kappa < 1 {
		return fmt.Errorf("scenario: kappa %d < 1", kappa)
	}
	if info.Name == "dba" && kappa < core.MinKappa {
		return fmt.Errorf("scenario: dba needs κ ≥ %d (got %d)", core.MinKappa, kappa)
	}
	return nil
}

// NoiseFits is the silence verdict for an adversary or jammer (nil is
// none): nil unless it is adaptive and the medium below it masks
// silence.  An adaptive adversary's gap-equals-silence rule needs idle
// slots reported truthfully, which neither classical:none nor a jam
// wrapper does.
func NoiseFits(noise adversary.Adversary, masksSilence bool) error {
	if _, adaptive := noise.(adversary.Adaptive); adaptive && masksSilence {
		return lazyError(func() string {
			return fmt.Sprintf("scenario: adaptive %s reacts to channel feedback, but the medium below it masks silence; pick a model with channel sensing and no jammer", noise.Name())
		})
	}
	return nil
}

// ParseJammer decodes a jammer descriptor into a fresh jammer, or nil
// for none: "none" (or ""), "random:RATE", or "periodic:PERIOD/BURST" —
// BURST jammed slots at the start of every PERIOD, which is
// adversary.BurstGap{BURST, PERIOD−BURST}.  A zero BURST never jams,
// so it too yields nil and the run composes no jam wrapper.
func ParseJammer(desc string) (adversary.Jammer, error) {
	switch {
	case desc == "" || desc == "none":
		return nil, nil
	case strings.HasPrefix(desc, "random:"):
		// The adversary parser is the single source of the rate
		// validation for both descriptors.
		adv, err := adversary.Parse(desc)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad jammer %q (want random:RATE with RATE in [0,1])", desc)
		}
		return adv.(adversary.Jammer), nil
	case strings.HasPrefix(desc, "periodic:"):
		period, burst, ok := strings.Cut(desc[len("periodic:"):], "/")
		if !ok {
			return nil, fmt.Errorf("scenario: bad jammer %q (want periodic:PERIOD/BURST)", desc)
		}
		p, err1 := strconv.ParseInt(period, 10, 64)
		b, err2 := strconv.ParseInt(burst, 10, 64)
		if err1 != nil || err2 != nil || p < 1 || p > adversary.MaxSlotParam || b < 0 || b > p {
			return nil, fmt.Errorf("scenario: bad jammer %q (want periodic:PERIOD/BURST with 1 ≤ PERIOD ≤ 2^40, 0 ≤ BURST ≤ PERIOD)", desc)
		}
		if b == 0 {
			return nil, nil
		}
		return adversary.NewBurstGap(b, p-b), nil
	}
	return nil, fmt.Errorf("scenario: unknown jammer %q (want none, random:RATE, or periodic:PERIOD/BURST)", desc)
}
