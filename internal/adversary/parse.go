package adversary

import (
	"fmt"
	"strconv"
	"strings"
)

// Kinds lists the adversary descriptor forms Parse accepts, in canonical
// order.  "none" (or the empty string) parses to nil.
var Kinds = []string{
	"none",
	"random:RATE",
	"burst:B/GAP",
	"reactive:TRIGGER/BURST",
	"sigmarho:SIGMA/RHO",
}

// Parse constructs an adversary from a descriptor:
//
//	none                    no adversary (returns nil)
//	random:RATE             oblivious jammer, per-slot probability RATE ∈ [0,1]
//	burst:B/GAP             duty-cycled jammer: B jammed slots, GAP clean, repeat
//	reactive:TRIGGER/BURST  adaptive jammer: arm after TRIGGER busy slots, jam BURST
//	sigmarho:SIGMA/RHO      (σ,ρ)-bounded front-loading arrival adversary
//
// Each call returns a fresh adversary (they are stateful), so a
// descriptor can be parsed once per trial to give every trial its own
// instance.
func Parse(desc string) (Adversary, error) {
	switch {
	case desc == "" || desc == "none":
		return nil, nil
	case strings.HasPrefix(desc, "random:"):
		rate, err := strconv.ParseFloat(desc[len("random:"):], 64)
		if err != nil || !validRandomRate(rate) {
			return nil, fmt.Errorf("adversary: bad descriptor %q (want random:RATE with RATE in [0,1])", desc)
		}
		return NewRandom(rate), nil
	case strings.HasPrefix(desc, "burst:"):
		b, gap, err := splitInts(desc[len("burst:"):])
		if err != nil || !validBurstGap(b, gap) {
			return nil, fmt.Errorf("adversary: bad descriptor %q (want burst:B/GAP with 1 ≤ B ≤ 2^40, 0 ≤ GAP ≤ 2^40)", desc)
		}
		return NewBurstGap(b, gap), nil
	case strings.HasPrefix(desc, "reactive:"):
		trigger, burst, err := splitInts(desc[len("reactive:"):])
		if err != nil || !validReactive(trigger, burst) {
			return nil, fmt.Errorf("adversary: bad descriptor %q (want reactive:TRIGGER/BURST, both in [1, 2^40])", desc)
		}
		return NewReactive(trigger, burst), nil
	case strings.HasPrefix(desc, "sigmarho:"):
		spec := desc[len("sigmarho:"):]
		slash := strings.IndexByte(spec, '/')
		if slash < 0 {
			return nil, fmt.Errorf("adversary: bad descriptor %q (want sigmarho:SIGMA/RHO)", desc)
		}
		sigma, err1 := strconv.ParseInt(spec[:slash], 10, 64)
		rho, err2 := strconv.ParseFloat(spec[slash+1:], 64)
		if err1 != nil || err2 != nil || !validSigmaRho(sigma, rho) {
			return nil, fmt.Errorf("adversary: bad descriptor %q (want sigmarho:SIGMA/RHO with 0 ≤ SIGMA ≤ 2^40, 0 ≤ RHO ≤ %g, not both 0)", desc, float64(MaxRho))
		}
		return NewSigmaRho(sigma, rho), nil
	}
	return nil, fmt.Errorf("adversary: unknown descriptor %q (want %s)", desc, strings.Join(Kinds, ", "))
}

func splitInts(spec string) (int64, int64, error) {
	slash := strings.IndexByte(spec, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("missing '/'")
	}
	a, err1 := strconv.ParseInt(spec[:slash], 10, 64)
	b, err2 := strconv.ParseInt(spec[slash+1:], 10, 64)
	if err1 != nil {
		return 0, 0, err1
	}
	if err2 != nil {
		return 0, 0, err2
	}
	return a, b, nil
}
