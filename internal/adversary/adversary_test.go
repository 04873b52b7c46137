package adversary

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/rng"
)

func busy(slot int64) channel.Feedback   { return channel.Feedback{Slot: slot} }
func silent(slot int64) channel.Feedback { return channel.Feedback{Slot: slot, Silent: true} }
func event(slot int64) channel.Feedback {
	return channel.Feedback{Slot: slot, Event: &channel.Event{Slot: slot}}
}

func TestParseRoundTrip(t *testing.T) {
	cases := map[string]string{
		"random:0.25":      "random(0.250)",
		"burst:100/900":    "burst(100/900)",
		"reactive:32/128":  "reactive(32/128)",
		"sigmarho:200/0.1": "sigmarho(200/0.100)",
	}
	for desc, name := range cases {
		adv, err := Parse(desc)
		if err != nil {
			t.Fatalf("Parse(%q): %v", desc, err)
		}
		if adv.Name() != name {
			t.Fatalf("Parse(%q).Name() = %q, want %q", desc, adv.Name(), name)
		}
	}
	for _, none := range []string{"", "none"} {
		if adv, err := Parse(none); err != nil || adv != nil {
			t.Fatalf("Parse(%q) = %v, %v, want nil, nil", none, adv, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, desc := range []string{
		"emp", "random:2", "random:-0.1", "random:x",
		"burst:0/10", "burst:5", "burst:-1/2", "burst:a/b",
		"reactive:0/5", "reactive:5/0", "reactive:5",
		"sigmarho:-1/0.1", "sigmarho:0/0", "sigmarho:10", "sigmarho:x/y",
		"random:NaN", "sigmarho:5/NaN", "sigmarho:5/+Inf", "sigmarho:5/2e6",
		"burst:9000000000000000000/1000000000000000000", "sigmarho:1099511627777/0.1",
		"reactive:1/9223372036854775806", "reactive:1099511627777/8",
	} {
		if _, err := Parse(desc); err == nil {
			t.Errorf("Parse(%q) accepted", desc)
		}
	}
}

func TestParseReturnsFreshInstances(t *testing.T) {
	a, _ := Parse("reactive:1/4")
	b, _ := Parse("reactive:1/4")
	if a == b {
		t.Fatal("Parse returned a shared instance for a stateful adversary")
	}
}

func TestKindClassification(t *testing.T) {
	for desc, wantJam := range map[string]bool{
		"random:0.1": true, "burst:10/90": true, "reactive:4/8": true,
		"sigmarho:10/0.1": false, "none": false, "bogus": false,
	} {
		adv, _ := Parse(desc)
		if _, jams := adv.(Jammer); jams != wantJam {
			t.Errorf("Parse(%q) is a Jammer: %v, want %v", desc, jams, wantJam)
		}
	}
	for desc, wantAdaptive := range map[string]bool{
		"reactive:4/8": true, "random:0.1": false, "sigmarho:1/0": false,
	} {
		adv, _ := Parse(desc)
		if _, adaptive := adv.(Adaptive); adaptive != wantAdaptive {
			t.Errorf("Parse(%q) is Adaptive: %v, want %v", desc, adaptive, wantAdaptive)
		}
	}
}

func TestNewRandomValidates(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRandom(%v) accepted", rate)
				}
			}()
			NewRandom(rate)
		}()
	}
}

func TestBurstGapDutyCycle(t *testing.T) {
	j := &BurstGap{Burst: 3, Gap: 7}
	r := rng.New(1)
	var jammed int
	for now := int64(0); now < 100; now++ {
		if j.Jams(now, r) {
			jammed++
			if now%10 >= 3 {
				t.Fatalf("slot %d jammed outside the burst phase", now)
			}
		}
	}
	if jammed != 30 {
		t.Fatalf("jammed %d of 100 slots, want 30", jammed)
	}
}

func TestRandomRate(t *testing.T) {
	j := NewRandom(0.25)
	r := rng.New(2)
	hits := 0
	const n = 100000
	for now := int64(0); now < n; now++ {
		if j.Jams(now, r) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.25) > 0.01 {
		t.Fatalf("random jam rate %v", got)
	}
}

func TestRandomEdges(t *testing.T) {
	r := rng.New(3)
	for now := int64(0); now < 100; now++ {
		if NewRandom(0).Jams(now, r) {
			t.Fatalf("rate-0 jammed slot %d", now)
		}
		if !NewRandom(1).Jams(now, r) {
			t.Fatalf("rate-1 spared slot %d", now)
		}
	}
}

func TestJammerNames(t *testing.T) {
	for _, c := range []struct {
		j    Jammer
		name string
	}{
		{NewRandom(0.5), "random(0.500)"},
		{NewBurstGap(100, 900), "burst(100/900)"},
		{NewReactive(3, 64), "reactive(3/64)"},
	} {
		if c.j.Name() != c.name {
			t.Errorf("name %q, want %q", c.j.Name(), c.name)
		}
	}
}

func TestReactiveArmsOnNearDecode(t *testing.T) {
	j := NewReactive(3, 5)
	r := rng.New(1)
	// Two busy slots: not yet armed.
	j.Observe(busy(0))
	j.Observe(busy(1))
	if j.Jams(2, r) {
		t.Fatal("armed before the trigger")
	}
	// Third consecutive busy slot arms slots 3..7.
	j.Observe(busy(2))
	for now := int64(3); now < 8; now++ {
		if !j.Jams(now, r) {
			t.Fatalf("slot %d not jammed inside the burst", now)
		}
		j.Observe(busy(now)) // its own noise
	}
	if j.Jams(8, r) {
		t.Fatal("burst overran")
	}
	// The self-jammed slots must not have re-armed the attack.
	j.Observe(busy(8))
	j.Observe(busy(9))
	if j.Jams(10, r) {
		t.Fatal("self-jam noise counted toward re-arming")
	}
}

func TestReactiveResetsOnSilenceAndEvents(t *testing.T) {
	j := NewReactive(2, 3)
	r := rng.New(1)
	j.Observe(busy(0))
	j.Observe(silent(1)) // silence breaks the run
	j.Observe(busy(2))
	j.Observe(event(3)) // decode closes the window: too late to spoil
	j.Observe(busy(4))
	if j.Jams(5, r) {
		t.Fatal("armed despite run broken by silence and event")
	}
	j.Observe(busy(5))
	if !j.Jams(6, r) {
		t.Fatal("two consecutive busy slots failed to arm")
	}
}

func TestReactiveGapEquivalentToSilence(t *testing.T) {
	// The determinism contract: a gap in observed slots (fast-forwarded
	// idle stretch) must leave the jammer in exactly the state observed
	// silence would.  Feed one trace densely with explicit silence and
	// once sparsely with gaps; every jam decision must agree.
	dense := NewReactive(2, 4)
	for _, fb := range []channel.Feedback{
		busy(0), silent(1), silent(2), busy(3), busy(4), // arms 5..8
	} {
		dense.Observe(fb)
	}
	sparse := NewReactive(2, 4)
	for _, fb := range []channel.Feedback{busy(0), busy(3), busy(4)} {
		sparse.Observe(fb)
	}
	r := rng.New(1)
	for now := int64(5); now < 12; now++ {
		if dense.Jams(now, r) != sparse.Jams(now, r) {
			t.Fatalf("slot %d: dense and sparse observation disagree", now)
		}
	}
	if !dense.Jams(5, r) || dense.Jams(9, r) {
		t.Fatal("expected arming over slots 5..8")
	}
}

func TestReactiveReset(t *testing.T) {
	j := NewReactive(1, 10)
	j.Observe(busy(0))
	if !j.Jams(1, rng.New(1)) {
		t.Fatal("not armed")
	}
	j.Reset()
	if j.Jams(1, rng.New(1)) {
		t.Fatal("Reset left the jammer armed")
	}
}

func TestSigmaRhoFrontLoadsWithinBudget(t *testing.T) {
	s := &SigmaRho{Sigma: 10, Rho: 0.5}
	r := rng.New(1)
	var total int64
	for now := int64(0); now < 100; now++ {
		n := int64(s.Injects(now, r))
		total += n
		if budget := int64(10) + int64(0.5*float64(now+1)); total > budget {
			t.Fatalf("slot %d: injected %d exceeds budget %d", now, total, budget)
		}
		if now == 0 && n != 10 {
			t.Fatalf("slot 0 injected %d, want the full σ=10 burst", n)
		}
	}
	// Greedy: the whole admissible budget is spent.
	if want := int64(10) + int64(0.5*float64(100)); total != want {
		t.Fatalf("injected %d over 100 slots, want %d", total, want)
	}
}

func TestSigmaRhoNextAfterSkipsNothing(t *testing.T) {
	// Driving the process NextAfter-to-NextAfter (as the fast-forwarding
	// engine does) must inject exactly what dense stepping injects.
	r := rng.New(1)
	dense := &SigmaRho{Sigma: 3, Rho: 0.3}
	densePer := map[int64]int{}
	for now := int64(0); now < 50; now++ {
		if n := dense.Injects(now, r); n > 0 {
			densePer[now] = n
		}
	}
	sparse := &SigmaRho{Sigma: 3, Rho: 0.3}
	sparsePer := map[int64]int{}
	now := int64(0)
	for now < 50 {
		if n := sparse.Injects(now, r); n > 0 {
			sparsePer[now] = n
		}
		next := sparse.NextAfter(now)
		if next < 0 {
			break
		}
		if next <= now {
			t.Fatalf("NextAfter(%d) = %d did not advance", now, next)
		}
		now = next
	}
	if len(densePer) != len(sparsePer) {
		t.Fatalf("dense %v vs sparse %v", densePer, sparsePer)
	}
	for slot, n := range densePer {
		if sparsePer[slot] != n {
			t.Fatalf("slot %d: dense %d sparse %d", slot, n, sparsePer[slot])
		}
	}
}

func TestSigmaRhoPureBurstEnds(t *testing.T) {
	s := &SigmaRho{Sigma: 5, Rho: 0}
	r := rng.New(1)
	if s.Injects(0, r) != 5 {
		t.Fatal("σ burst not injected at slot 0")
	}
	if s.NextAfter(0) != -1 {
		t.Fatalf("NextAfter after exhausting σ = %d, want -1", s.NextAfter(0))
	}
	s.Reset()
	if s.Injects(3, r) != 5 {
		t.Fatal("Reset did not restore the budget")
	}
}

func TestArrivalsAdapter(t *testing.T) {
	inj := &SigmaRho{Sigma: 2, Rho: 0}
	p := Arrivals(inj)
	if p.Name() != inj.Name() {
		t.Fatal("adapter name mismatch")
	}
	if p.Injections(0, rng.New(1)) != 2 || p.NextAfter(0) != -1 {
		t.Fatal("adapter does not forward to the injector")
	}
	if !strings.Contains(p.Name(), "sigmarho") {
		t.Fatal("unexpected adapter name")
	}
}

func TestMutedArrivalsDoesNotObserve(t *testing.T) {
	// The muted adapter is for adversaries already hearing each slot
	// through the jam wrapper: it must not implement arrival.Observer,
	// while the standard adapter must.
	inj := &SigmaRho{Sigma: 1, Rho: 0}
	if _, ok := MutedArrivals(inj).(arrival.Observer); ok {
		t.Fatal("MutedArrivals forwards feedback")
	}
	if _, ok := Arrivals(inj).(arrival.Observer); !ok {
		t.Fatal("Arrivals lost its Observer forwarding")
	}
}

func TestSigmaRhoTinyRhoTerminates(t *testing.T) {
	// A pathologically small ρ means the next injection is unreachable
	// in any simulable horizon; NextAfter must report -1 promptly, not
	// scan the int64 range.
	s := &SigmaRho{Sigma: 1, Rho: 1e-300}
	r := rng.New(1)
	if s.Injects(0, r) != 1 {
		t.Fatal("σ burst missing")
	}
	if got := s.NextAfter(0); got != -1 {
		t.Fatalf("NextAfter = %d, want -1 (next budget crossing unrepresentable)", got)
	}
}
