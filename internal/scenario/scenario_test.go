package scenario

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
)

// valid is a scenario every rule admits; each Validate row breaks one
// rule of it.
func valid() Scenario {
	return Scenario{Model: "coded", Protocol: "dba", Arrival: "batch", Kappa: 8,
		Rate: 0.5, Horizon: 100, Drain: true}
}

func TestValidateRules(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Scenario){
		"unknown model":           func(s *Scenario) { s.Model = "warp" },
		"unknown protocol":        func(s *Scenario) { s.Protocol = "tdma" },
		"unknown arrival":         func(s *Scenario) { s.Arrival = "fractal" },
		"kappa < 1":               func(s *Scenario) { s.Protocol, s.Kappa = "beb", 0 },
		"capture kappa < 1":       func(s *Scenario) { s.Model, s.Protocol, s.Kappa = "capture", "beb", 0 },
		"negative horizon":        func(s *Scenario) { s.Horizon = -5 },
		"negative drain limit":    func(s *Scenario) { s.DrainLimit = -1 },
		"negative batch size":     func(s *Scenario) { s.BatchN = -1 },
		"negative burst window":   func(s *Scenario) { s.Arrival, s.BurstWindow = "burst", -1 },
		"negative rate":           func(s *Scenario) { s.Arrival, s.Rate = "even", -0.1 },
		"NaN rate":                func(s *Scenario) { s.Rate = math.NaN() },
		"infinite rate":           func(s *Scenario) { s.Rate = math.Inf(1) },
		"aloha p > 1":             func(s *Scenario) { s.Protocol, s.AlohaP = "aloha", 2 },
		"aloha p < 0":             func(s *Scenario) { s.Protocol, s.AlohaP = "aloha", -0.5 },
		"coded-only off coded":    func(s *Scenario) { s.Model = "capture" },
		"dba below its kappa":     func(s *Scenario) { s.Kappa = 3 },
		"dba on embedded kappa 3": func(s *Scenario) { s.Model = "coded:3" },
		"bad jammer":              func(s *Scenario) { s.Jammer = "emp" },
		"bad adversary":           func(s *Scenario) { s.Adversary = "reactive:0/1" },
		"adaptive over classical:none": func(s *Scenario) {
			s.Model, s.Protocol, s.Adversary = "classical:none", "beb", "reactive:2/3"
		},
		"adaptive over a jammer": func(s *Scenario) { s.Jammer, s.Adversary = "random:0.1", "reactive:2/3" },
	} {
		s := valid()
		mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
			continue
		}
		if _, _, _, berr := s.Build(1, 2, nil); berr == nil || berr.Error() != err.Error() {
			t.Errorf("%s: Build error %v, Validate error %v", name, berr, err)
		}
	}
}

// TestValidateAdmits pins what the validity rules leave to the sweep's
// grid-skip rules or allow outright.
func TestValidateAdmits(t *testing.T) {
	for name, s := range map[string]Scenario{
		"no-CD protocol on capture":    {Model: "capture", Protocol: "robust", Kappa: 4, BatchN: 8},
		"no-CD protocol on coded":      {Protocol: "unbounded", Kappa: 8, BatchN: 8},
		"adaptive over coded":          {Protocol: "dba", Kappa: 8, Adversary: "reactive:2/3", BatchN: 8},
		"adaptive over ternary":        {Model: "classical", Protocol: "beb", Adversary: "reactive:2/3", BatchN: 8},
		"oblivious jam over none":      {Model: "classical:none", Protocol: "beb", Adversary: "random:0.1", BatchN: 8},
		"jammer plus oblivious":        {Protocol: "beb", Kappa: 2, Jammer: "periodic:10/2", Adversary: "burst:1/9", BatchN: 8},
		"classical ignores kappa":      {Model: "classical:binary", Protocol: "genie", BatchN: 8},
		"empty model, arrival, jammer": {Protocol: "beb", Kappa: 1},
		"aloha p at its edges":         {Protocol: "aloha", Kappa: 1, AlohaP: 1},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestNoiseFitsAdaptiveJammer(t *testing.T) {
	reactive := adversary.NewReactive(2, 3) // a Jammer and Adaptive
	if NoiseFits(reactive, true) == nil {
		t.Error("adaptive jammer admitted over a silence-masking medium")
	}
	if err := NoiseFits(reactive, false); err != nil {
		t.Errorf("adaptive jammer over a truthful medium: %v", err)
	}
	if err := NoiseFits(adversary.NewRandom(0.5), true); err != nil {
		t.Errorf("oblivious jammer over a masking medium: %v", err)
	}
	if err := NoiseFits(nil, true); err != nil {
		t.Errorf("no noise: %v", err)
	}
}

func TestBuildMapsScenario(t *testing.T) {
	s := Scenario{Model: "classical:ternary", Protocol: "aloha", Arrival: "bernoulli", Kappa: 64,
		Rate: 0.2, Adversary: "random:0.1", Horizon: 500, Drain: true, DrainLimit: 9,
		MaxWindow: 7, LatencySamples: -1, SeriesCap: 11}
	cfg, proto, arr, err := s.Build(5, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kappa != 1 || cfg.Medium == nil || cfg.Medium.Name() != "classical:ternary" {
		t.Errorf("classical medium: κ=%d medium=%v", cfg.Kappa, cfg.Medium)
	}
	if cfg.Seed != 5 || cfg.Horizon != 500 || !cfg.Drain || cfg.DrainLimit != 9 ||
		cfg.MaxWindow != 7 || cfg.LatencySamples != -1 || cfg.SeriesCap != 11 {
		t.Errorf("run-wide fields not carried: %+v", cfg)
	}
	if cfg.Adversary == nil || cfg.Adversary.Name() != "random(0.100)" || cfg.Jammer != nil {
		t.Errorf("adversary %v, jammer %v", cfg.Adversary, cfg.Jammer)
	}
	if !reflect.DeepEqual(arr, &arrival.Bernoulli{Rate: 0.2}) {
		t.Errorf("arrival %#v", arr)
	}
	// The protocol is the registry's, seeded with the protocol seed and
	// the default ALOHA p.
	want := protocol.Build("aloha", protocol.Params{Kappa: 1, Rand: rng.New(6), AlohaP: DefaultAlohaP})
	if !reflect.DeepEqual(proto, want) {
		t.Errorf("protocol %#v, want %#v", proto, want)
	}

	// A bare coded model leaves the medium to the engine.
	cfg, _, _, err = Scenario{Protocol: "dba", Kappa: 8, BatchN: 1}.Build(1, 2, nil)
	if err != nil || cfg.Medium != nil || cfg.Kappa != 8 {
		t.Errorf("bare coded: medium %v κ=%d err %v", cfg.Medium, cfg.Kappa, err)
	}
	// An embedded κ wins over the Kappa field.
	cfg, _, _, err = Scenario{Model: "capture:5", Protocol: "beb", Kappa: 64, BatchN: 1}.Build(1, 2, nil)
	if err != nil || cfg.Kappa != 5 {
		t.Errorf("capture:5: κ=%d err %v", cfg.Kappa, err)
	}
}

func TestBuildArrivals(t *testing.T) {
	for name, c := range map[string]struct {
		s       Scenario
		want    arrival.Process
		horizon int64
	}{
		"batch size":            {Scenario{BatchN: 7, Horizon: 50}, &arrival.Batch{N: 7}, 50},
		"batch fills horizon":   {Scenario{Rate: 0.25, Horizon: 40}, &arrival.Batch{N: 10}, 40},
		"batch at least one":    {Scenario{Rate: 0.001, Horizon: 40}, &arrival.Batch{N: 1}, 40},
		"batch horizon ≥ 1":     {Scenario{BatchN: 3}, &arrival.Batch{N: 3}, 1},
		"poisson":               {Scenario{Arrival: "poisson", Rate: 0.3, Horizon: 9}, &arrival.Poisson{Lambda: 0.3}, 9},
		"even":                  {Scenario{Arrival: "even", Rate: 0.3, Horizon: 9}, arrival.NewEvenPaced(0.3), 9},
		"burst window":          {Scenario{Arrival: "burst", Rate: 0.5, BurstWindow: 64}, &arrival.WindowBurst{Window: 64, PerWindow: 32}, 0},
		"burst default window":  {Scenario{Arrival: "burst", Rate: 0.5}, &arrival.WindowBurst{Window: DefaultBurstWindow, PerWindow: DefaultBurstWindow / 2}, 0},
		"burst at least one":    {Scenario{Arrival: "burst", Rate: 0.01, BurstWindow: 16}, &arrival.WindowBurst{Window: 16, PerWindow: 1}, 0},
		"bernoulli zero rate":   {Scenario{Arrival: "bernoulli", Horizon: 3}, &arrival.Bernoulli{}, 3},
		"even paced at horizon": {Scenario{Arrival: "even", Rate: 1, Horizon: 2}, arrival.NewEvenPaced(1), 2},
	} {
		c.s.Protocol, c.s.Kappa = "beb", 1
		cfg, _, arr, err := c.s.Build(1, 2, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(arr, c.want) || cfg.Horizon != c.horizon {
			t.Errorf("%s: arrival %#v horizon %d, want %#v horizon %d", name, arr, cfg.Horizon, c.want, c.horizon)
		}
	}
}

// TestBuildRunsLikeHandWired: a scenario run equals the same run wired
// by hand from the packages the builder uses.
func TestBuildRunsLikeHandWired(t *testing.T) {
	s := Scenario{Protocol: "dba", Arrival: "bernoulli", Kappa: 16, Rate: 0.4,
		Adversary: "reactive:4/16", Horizon: 3000, Drain: true}
	var epochs int
	cfg, proto, arr, err := s.Build(9, ProtocolSeed(9), protocol.EpochObserverFunc(func(protocol.EpochInfo) { epochs++ }))
	if err != nil {
		t.Fatal(err)
	}
	got := sim.Run(cfg, proto, arr)
	adv, _ := adversary.Parse("reactive:4/16")
	want := sim.Run(sim.Config{Kappa: 16, Horizon: 3000, Drain: true, Seed: 9, Adversary: adv},
		protocol.Build("dba", protocol.Params{Kappa: 16, Rand: rng.New(9 ^ 0x70726f746f636f6c)}),
		&arrival.Bernoulli{Rate: 0.4})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario run differs from the hand-wired run:\n%s\n%s", got, want)
	}
	if epochs == 0 {
		t.Fatal("epoch observer never called")
	}
}
