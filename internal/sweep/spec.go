// Package sweep runs declarative scenario grids: a Spec names the
// cross-product of channel models × protocols × arrival processes ×
// decoding thresholds × rates × jammers × adversaries it wants explored,
// and Run executes every cell's trials in parallel, aggregating per-cell
// summaries into a Grid that serializes to deterministic JSON and CSV.
// Same spec + same seed ⇒ byte-identical artifacts, regardless of
// parallelism — sweep outputs are diffable across commits, including
// cells with adaptive (feedback-reacting) adversaries.
//
// The model axis makes cross-channel comparisons one artifact: the same
// grid can run Decodable Backoff on the coded channel next to
// BEB/ALOHA/MW on the classical collision channel (with selectable
// collision-detection feedback), which is exactly the comparison the
// paper's headline throughput claim is about.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

// Model, protocol, and arrival kinds a Spec may name.
var (
	// Models lists the known channel-model descriptors in canonical
	// order (see internal/medium).
	Models = medium.Models
	// Protocols lists the known protocol kinds in canonical order,
	// straight from the protocol registry (the scenario builder links
	// every implementing package, so the axis is complete by the time
	// this package initializes).
	Protocols = protocol.Names()
	// Arrivals lists the known arrival kinds in canonical order.
	Arrivals = scenario.Arrivals
	// Adversaries lists the adversary descriptor forms a Spec may name
	// (see internal/adversary).
	Adversaries = adversary.Kinds
)

// Spec declares a scenario grid.  Every combination of one channel
// model, one protocol, one arrival kind, one κ, one rate, one jammer,
// and one adversary is a cell; each cell runs Trials independent
// trials.  The rate axis is the scenario builder's offered load, one
// meaning across arrival kinds (see scenario.Scenario.Rate).
//
// Cells the scenario builder would reject (dba off the coded model,
// adaptive adversaries under silence-masking models) and cells the
// grid-skip rules exclude (no-CD protocols off classical:none, the
// κ-axis collapse, one noise source per cell) are skipped during
// expansion rather than rejected, so one grid can mix channel models
// and adversaries freely; see Expand and DESIGN.md §12.
type Spec struct {
	// Name labels the sweep in artifacts (optional).
	Name string `json:"name,omitempty"`

	// Models ⊆ {coded, classical, classical:none, classical:binary,
	// classical:ternary, capture}.  Empty means {"coded"}; "classical"
	// is shorthand for "classical:ternary".
	Models []string `json:"models,omitempty"`
	// Protocols ⊆ {dba, beb, aloha, genie, mw, robust, unbounded}.
	Protocols []string `json:"protocols"`
	// Arrivals ⊆ {batch, bernoulli, poisson, even, burst}.
	Arrivals []string `json:"arrivals"`
	// Kappas are the decoding thresholds (≥ 1; ≥ 6 if dba is swept).
	Kappas []int `json:"kappas"`
	// Rates are the offered loads, each in (0, ∞).
	Rates []float64 `json:"rates"`
	// Jammers are jammer descriptors: "none", "random:RATE", or
	// "periodic:PERIOD/BURST".  Empty means {"none"}.
	Jammers []string `json:"jammers,omitempty"`
	// Adversaries are adversary descriptors (internal/adversary):
	// "none", "random:RATE", "burst:B/GAP", "reactive:TRIGGER/BURST", or
	// "sigmarho:SIGMA/RHO".  Empty means {"none"}.
	Adversaries []string `json:"adversaries,omitempty"`

	// Trials is the number of independent trials per cell (≥ 1).
	Trials int `json:"trials"`
	// Horizon is the arrival horizon in slots (≥ 1).
	Horizon int64 `json:"horizon"`
	// NoDrain stops each run at the horizon instead of draining.
	NoDrain bool `json:"no_drain,omitempty"`
	// DrainLimit bounds the drain phase (0 = engine default).
	DrainLimit int64 `json:"drain_limit,omitempty"`
	// MaxWindow caps the decoding window (0 = engine default 4κ).
	MaxWindow int `json:"max_window,omitempty"`
	// LatencySamples bounds the per-trial latency sample backing the
	// quantile columns: 0 keeps the engine default (a
	// sim.DefaultLatencySamples-slot seeded reservoir), a positive value
	// sets that capacity, and -1 disables retention (quantile columns go
	// to zero).  Per-trial memory is O(LatencySamples) instead of the
	// former O(arrivals); at default quick scales the reservoir holds
	// every delivery, so quantiles stay exact.
	LatencySamples int `json:"latency_samples,omitempty"`
	// Seed drives all randomness; cell and trial seeds derive from it.
	Seed uint64 `json:"seed"`
	// Workers selects the engine's intra-trial execution path (see
	// sim.Config.Workers): 0 the serial reference loop, W ≥ 1 the staged
	// shard/step/reduce engine with up to W goroutines per trial.
	// Results are bit-identical for every value, so Workers is a pure
	// wall-clock knob: it is deliberately excluded from cell identities
	// (see cellID) and, via omitempty, from the hash of specs that leave
	// it unset.
	Workers int `json:"workers,omitempty"`

	// BatchN overrides the batch arrival size (0 = rate×Horizon).
	BatchN int `json:"batch_n,omitempty"`
	// BurstWindow is the burst arrival window length (0 =
	// scenario.DefaultBurstWindow).
	BurstWindow int64 `json:"burst_window,omitempty"`
	// AlohaP is the static ALOHA transmission probability (0 =
	// scenario.DefaultAlohaP).
	AlohaP float64 `json:"aloha_p,omitempty"`
}

// Scenario is one concrete cell of the expanded grid.
type Scenario struct {
	Model     string  `json:"model"`
	Protocol  string  `json:"protocol"`
	Arrival   string  `json:"arrival"`
	Kappa     int     `json:"kappa"`
	Rate      float64 `json:"rate"`
	Jammer    string  `json:"jammer"`
	Adversary string  `json:"adversary"`
}

// Key renders the cell coordinates compactly for tables and logs.
func (s Scenario) Key() string {
	return fmt.Sprintf("%s/%s/%s/k=%d/rate=%g/jam=%s/adv=%s",
		s.Model, s.Protocol, s.Arrival, s.Kappa, s.Rate, s.Jammer, s.Adversary)
}

// Validate checks the spec and normalizes defaults (empty Models
// becomes {"coded"}, empty Jammers becomes {"none"}).  It returns the
// first problem found.  The validity rules are the scenario builder's;
// the spec adds its axis checks and Expand's grid-skip rules.
func (s *Spec) Validate() error {
	if len(s.Models) == 0 {
		s.Models = []string{"coded"}
	}
	for _, m := range s.Models {
		ms, err := medium.ParseSpec(m)
		if err != nil {
			return fmt.Errorf("sweep: unknown model %q (want one of %s)",
				m, strings.Join(Models, ", "))
		}
		if ms.Kappa != 0 || ms.MaxWindow != 0 {
			// κ is a sweep axis and the window cap a spec field; a
			// parametrized descriptor would smuggle either into the model
			// coordinate and silently fork cell identities.
			return fmt.Errorf("sweep: model %q embeds parameters; use the kappas axis and max_window field instead", m)
		}
	}
	if len(s.Protocols) == 0 {
		return fmt.Errorf("sweep: no protocols")
	}
	for _, p := range s.Protocols {
		if !slices.Contains(Protocols, p) {
			return fmt.Errorf("sweep: unknown protocol %q (want one of %s)",
				p, strings.Join(Protocols, ", "))
		}
	}
	if len(s.Arrivals) == 0 {
		return fmt.Errorf("sweep: no arrivals")
	}
	for _, a := range s.Arrivals {
		if !slices.Contains(Arrivals, a) {
			return fmt.Errorf("sweep: unknown arrival %q (want one of %s)",
				a, strings.Join(Arrivals, ", "))
		}
	}
	if len(s.Kappas) == 0 {
		return fmt.Errorf("sweep: no kappas")
	}
	for _, k := range s.Kappas {
		if k < 1 {
			return fmt.Errorf("sweep: kappa %d < 1", k)
		}
	}
	// Every κ a model sweeps must fit every protocol that pairs with it:
	// a bad threshold (dba below κ = 6) is an error, not a skipped cell.
	for _, m := range s.Models {
		ms, _ := medium.ParseSpec(m)
		for _, p := range s.Protocols {
			info, _ := protocol.Lookup(p)
			if scenario.ModelFits(info, ms) != nil {
				continue
			}
			for _, k := range s.kappas(m) {
				if err := scenario.KappaFits(info, k); err != nil {
					return fmt.Errorf("sweep: %s on %s: %w", p, m, err)
				}
			}
		}
	}
	allNoCD := true
	for _, p := range s.Protocols {
		info, _ := protocol.Lookup(p)
		allNoCD = allNoCD && info.NoCDOnly
	}
	if allNoCD && !slices.Contains(s.Models, "classical:none") {
		return fmt.Errorf("sweep: no-CD protocols (%s) pair only with the classical:none model, but it is not swept",
			strings.Join(s.Protocols, ", "))
	}
	if len(s.Rates) == 0 {
		return fmt.Errorf("sweep: no rates")
	}
	for _, r := range s.Rates {
		if !(r > 0) || math.IsInf(r, 1) {
			return fmt.Errorf("sweep: rate %g is not a finite value > 0", r)
		}
	}
	if len(s.Jammers) == 0 {
		s.Jammers = []string{"none"}
	}
	for _, j := range s.Jammers {
		if _, err := scenario.ParseJammer(j); err != nil {
			return err
		}
	}
	if len(s.Adversaries) == 0 {
		s.Adversaries = []string{"none"}
	}
	for _, a := range s.Adversaries {
		if _, err := adversary.Parse(a); err != nil {
			return err
		}
	}
	if s.Trials < 1 {
		return fmt.Errorf("sweep: trials %d < 1", s.Trials)
	}
	if s.Horizon < 1 {
		return fmt.Errorf("sweep: horizon %d < 1", s.Horizon)
	}
	if s.MaxWindow < 0 {
		return fmt.Errorf("sweep: max window %d < 0", s.MaxWindow)
	}
	if s.LatencySamples < -1 {
		return fmt.Errorf("sweep: latency samples %d < -1 (0 = engine default, -1 = off)", s.LatencySamples)
	}
	if s.Workers < 0 {
		return fmt.Errorf("sweep: workers %d < 0 (0 = serial engine)", s.Workers)
	}
	cells := s.Expand()
	if len(cells) == 0 {
		return fmt.Errorf("sweep: the skip rules leave no cells (every protocol/model/κ combination named is skipped)")
	}
	// The run-wide fields (drain limit, batch size, burst window, ALOHA
	// p) are the same in every cell, so one cell's scenario checks them.
	if err := s.scenario(cells[0]).Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// Cells returns the number of cells the spec expands to.
func (s *Spec) Cells() int { return len(s.Expand()) }

// classicalKappas is the collapsed κ axis for classical models: the
// collision channel decodes one transmission per slot, threshold 1.
var classicalKappas = []int{1}

// kappas returns the κ axis model m sweeps.  Classical models collapse
// it to {1}; the capture model skips κ = 1, where it is the classical
// collision channel the classical axis already covers.
func (s *Spec) kappas(m string) []int {
	if strings.HasPrefix(m, "classical") {
		return classicalKappas
	}
	if m != "capture" {
		return s.Kappas
	}
	filtered := make([]int, 0, len(s.Kappas))
	for _, k := range s.Kappas {
		if k >= 2 {
			filtered = append(filtered, k)
		}
	}
	return filtered
}

// Expand enumerates the grid's cells in canonical nesting order (model,
// then protocol, then arrival, then κ, then rate, then jammer, then
// adversary).  The order is part of the artifact contract: cell seeds
// are assigned along it.  Cells the scenario builder would reject are
// skipped: dba only under the coded model (scenario.ModelFits), and
// adaptive adversaries under silence-masking models
// (scenario.NoiseFits).  Four grid-skip rules keep mixed grids small:
// no-CD protocols exist only under classical:none; classical models
// collapse the κ axis to {1}; the capture model skips κ = 1 (where it
// collapses to classical); and jamming and adaptive adversaries pair
// only with jammer "none".
func (s *Spec) Expand() []Scenario {
	models := s.Models
	if len(models) == 0 {
		models = []string{"coded"}
	}
	jammers := s.Jammers
	if len(jammers) == 0 {
		jammers = []string{"none"}
	}
	advs := s.Adversaries
	if len(advs) == 0 {
		advs = []string{"none"}
	}
	// Classify each adversary descriptor once, and its silence verdict
	// once per model; the skip rules consult the flags in the innermost
	// loop.
	parsed := make([]adversary.Adversary, len(advs))
	advNoisy := make([]bool, len(advs))
	advFits := make([]bool, len(advs))
	for i, a := range advs {
		parsed[i], _ = adversary.Parse(a)
		_, jams := parsed[i].(adversary.Jammer)
		_, adaptive := parsed[i].(adversary.Adaptive)
		advNoisy[i] = jams || adaptive
	}
	var cells []Scenario
	for _, m := range models {
		ms, _ := medium.ParseSpec(m)
		// Ask the model itself whether it masks silence rather than
		// hard-coding descriptor names.
		masksSilence := false
		if built, err := ms.Build(1, 0); err == nil {
			masksSilence = medium.MasksSilence(built)
		}
		for i := range parsed {
			advFits[i] = scenario.NoiseFits(parsed[i], masksSilence) == nil
		}
		kappas := s.kappas(m)
		for _, p := range s.Protocols {
			info, _ := protocol.Lookup(p)
			if scenario.ModelFits(info, ms) != nil {
				continue
			}
			if info.NoCDOnly && m != "classical:none" {
				continue // no-CD schedules assume no channel sensing
			}
			for _, a := range s.Arrivals {
				for _, k := range kappas {
					for _, r := range s.Rates {
						for _, j := range jammers {
							for ai, adv := range advs {
								if advNoisy[ai] && j != "none" {
									// One noise source per cell; and an
									// adaptive adversary cannot sit over a
									// jammed (silence-spoiling) medium.
									continue
								}
								if !advFits[ai] {
									continue // no silence feedback to react to
								}
								cells = append(cells, Scenario{
									Model: m, Protocol: p, Arrival: a, Kappa: k, Rate: r,
									Jammer: j, Adversary: adv,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in
// hand-written spec files fail loudly.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// scenario maps one cell onto the scenario builder's input: the cell's
// coordinates plus the spec's run-wide fields.
func (s *Spec) scenario(sc Scenario) scenario.Scenario {
	return scenario.Scenario{
		Model:          sc.Model,
		Protocol:       sc.Protocol,
		Arrival:        sc.Arrival,
		Kappa:          sc.Kappa,
		Rate:           sc.Rate,
		Jammer:         sc.Jammer,
		Adversary:      sc.Adversary,
		Horizon:        s.Horizon,
		Drain:          !s.NoDrain,
		DrainLimit:     s.DrainLimit,
		MaxWindow:      s.MaxWindow,
		LatencySamples: s.LatencySamples,
		BatchN:         s.BatchN,
		BurstWindow:    s.BurstWindow,
		AlohaP:         s.AlohaP,
	}
}
