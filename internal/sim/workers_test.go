package sim

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/baseline"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/nocd"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// resultDump serializes every observable field of a Result — including
// the backlog series points and the raw latency-reservoir contents,
// whose element order is part of the determinism contract — so two runs
// are equal iff their dumps are byte-identical JSON.
func resultDump(t *testing.T, r *Result) string {
	t.Helper()
	var latVals []float64
	if r.LatencySample != nil {
		latVals = r.LatencySample.Values()
	}
	d := struct {
		Protocol, Arrival, Medium           string
		Kappa                               int
		Horizon, Arrivals, Delivered        int64
		Pending                             int
		FirstArrival, LastDelivery, Elapsed int64
		MaxBacklog, PeakInFlight            int
		Channel                             channel.Stats
		LatencyN                            int64
		LatencyMean, LatencyMin, LatencyMax float64
		LatencyStddev                       float64
		BacklogT                            []int64
		BacklogV                            []float64
		LatencyValues                       []float64
	}{
		Protocol: r.Protocol, Arrival: r.Arrival, Medium: r.Medium,
		Kappa:   r.Kappa,
		Horizon: r.Horizon, Arrivals: r.Arrivals, Delivered: r.Delivered,
		Pending:      r.Pending,
		FirstArrival: r.FirstArrival, LastDelivery: r.LastDelivery, Elapsed: r.Elapsed,
		MaxBacklog: r.MaxBacklog, PeakInFlight: r.PeakInFlight,
		Channel:     r.Channel,
		LatencyN:    r.Latency.N(),
		LatencyMean: r.Latency.Mean(), LatencyMin: r.Latency.Min(), LatencyMax: r.Latency.Max(),
		LatencyStddev: r.Latency.Stddev(),
		BacklogT:      r.BacklogSeries.T, BacklogV: r.BacklogSeries.V,
		LatencyValues: latVals,
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal result dump: %v", err)
	}
	return string(b)
}

// workerGrid is the protocol × medium × adversary regression grid for
// the staged engine: every scenario must produce byte-identical results
// at every worker count.  Scenarios cover the DBA core, both backoff
// shapes (Waker fast-forward paths), classical media, legacy jammers,
// adaptive jammers, arrival adversaries, a non-partitioned protocol
// (serial fallback), and one batch large enough to cross fanOutGrain so
// the parallel shard sweep really runs.
var workerGrid = []struct {
	name string
	run  func(workers int) *Result
}{
	{"dba/coded/batch", func(w int) *Result {
		return Run(Config{Kappa: 16, Horizon: 1, Drain: true, Seed: 11, Workers: w},
			core.New(16, rng.New(101)), &arrival.Batch{At: 0, N: 3000})
	}},
	{"dba/coded/bernoulli+random-jam", func(w int) *Result {
		return Run(Config{Kappa: 16, Horizon: 20000, Drain: true, Seed: 12, Workers: w,
			Jammer: adversary.NewRandom(0.2)},
			core.New(16, rng.New(102)), &arrival.Bernoulli{Rate: 0.3})
	}},
	{"dba/coded/reactive-adaptive", func(w int) *Result {
		return Run(Config{Kappa: 16, Horizon: 15000, Drain: true, Seed: 13, Workers: w,
			Adversary: adversary.NewReactive(1, 16)},
			core.New(16, rng.New(103)), &arrival.Bernoulli{Rate: 0.25})
	}},
	{"dba/coded/sigma-rho", func(w int) *Result {
		return Run(Config{Kappa: 16, Horizon: 15000, Drain: true, Seed: 14, Workers: w,
			Adversary: adversary.NewSigmaRho(64, 0.2)},
			core.New(16, rng.New(104)), &arrival.Bernoulli{Rate: 0.2})
	}},
	{"beb/coded/batch-waker", func(w int) *Result {
		return Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 15, Workers: w},
			baseline.NewExponentialBackoff(rng.New(105)), &arrival.Batch{At: 0, N: 64})
	}},
	{"beb/coded/periodic-jam-waker", func(w int) *Result {
		return Run(Config{Kappa: 8, Horizon: 4096, Drain: true, Seed: 16, Workers: w,
			Jammer: adversary.NewBurstGap(8, 56)},
			baseline.NewExponentialBackoff(rng.New(106)), &arrival.Batch{At: 0, N: 48})
	}},
	{"poly/coded/batch-waker", func(w int) *Result {
		return Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 17, Workers: w},
			baseline.NewPolynomialBackoff(rng.New(107), 2), &arrival.Batch{At: 0, N: 64})
	}},
	{"beb/classical-ternary/even", func(w int) *Result {
		return Run(Config{Horizon: 8192, Drain: true, Seed: 18, Workers: w,
			Medium: medium.NewClassical(medium.CDTernary)},
			baseline.NewExponentialBackoff(rng.New(108)), arrival.NewEvenPaced(0.2))
	}},
	{"genie/coded/serial-fallback", func(w int) *Result {
		return Run(Config{Kappa: 4, Horizon: 4096, Drain: true, Seed: 19, Workers: w},
			baseline.NewGenieAloha(rng.New(109), 1), arrival.NewEvenPaced(0.25))
	}},
	{"robust/classical-none/batch", func(w int) *Result {
		return Run(Config{Horizon: 1, Drain: true, Seed: 20, Workers: w,
			Medium: medium.NewClassical(medium.CDNone)},
			nocd.NewRobust(rng.New(110)), &arrival.Batch{At: 0, N: 200})
	}},
	{"unbounded/classical-none/bernoulli", func(w int) *Result {
		return Run(Config{Horizon: 6000, Drain: true, Seed: 21, Workers: w,
			Medium: medium.NewClassical(medium.CDNone)},
			nocd.NewUnbounded(rng.New(111)), &arrival.Bernoulli{Rate: 0.02})
	}},
	{"unbounded/capture/batch", func(w int) *Result {
		return Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 22, Workers: w,
			Medium: medium.NewCapture(8)},
			nocd.NewUnbounded(rng.New(112)), &arrival.Batch{At: 0, N: 500})
	}},
	{"beb/capture/bernoulli+random-jam", func(w int) *Result {
		return Run(Config{Kappa: 4, Horizon: 8000, Drain: true, Seed: 23, Workers: w,
			Medium: medium.NewCapture(4), Jammer: adversary.NewRandom(0.1)},
			baseline.NewExponentialBackoff(rng.New(113)), &arrival.Bernoulli{Rate: 0.2})
	}},
	{"mw/capture/reactive-adaptive", func(w int) *Result {
		return Run(Config{Kappa: 4, Horizon: 8000, Drain: true, Seed: 24, Workers: w,
			Medium: medium.NewCapture(4), Adversary: adversary.NewReactive(4, 16)},
			baseline.NewMultiplicativeWeights(rng.New(114), baseline.DefaultMWConfig()),
			&arrival.Bernoulli{Rate: 0.15})
	}},
}

// TestWorkersResultEquality is the tentpole regression: for every grid
// scenario, Workers 1, 3, and GOMAXPROCS reproduce the Workers 0
// (serial legacy) run byte for byte.
func TestWorkersResultEquality(t *testing.T) {
	counts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, sc := range workerGrid {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref := resultDump(t, sc.run(0))
			for _, w := range counts {
				if got := resultDump(t, sc.run(w)); got != ref {
					t.Errorf("workers=%d diverged from serial reference\nserial: %s\nstaged: %s", w, ref, got)
				}
			}
		})
	}
}

// TestWorkersFanOutEquality crosses the fanOutGrain threshold (an
// overfull DBA phase with ~17k joiners per slot), so the parallel shard
// sweep — not just the inline staged path — is exercised against the
// serial reference.
func TestWorkersFanOutEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("large batch")
	}
	run := func(w int) *Result {
		return Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 21, Workers: w,
			LatencySamples: 512},
			core.New(8, rng.New(201)), &arrival.Batch{At: 0, N: 50000})
	}
	ref := resultDump(t, run(0))
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := resultDump(t, run(w)); got != ref {
			t.Errorf("workers=%d diverged from serial reference on fan-out batch", w)
		}
	}
}

// TestStepperSelection pins the dispatch rules: workers ≥ 1 with a
// Partitioned protocol runs staged; workers 0, or a non-partitioned
// protocol, runs the serial reference.
func TestStepperSelection(t *testing.T) {
	dba := core.New(16, rng.New(1))
	if _, ok := newStepper(1, dba).(*stagedStepper); !ok {
		t.Error("workers=1 with a Partitioned protocol should select the staged path")
	}
	if _, ok := newStepper(0, dba).(*serialStepper); !ok {
		t.Error("workers=0 should select the serial reference path")
	}
	aloha := baseline.NewGenieAloha(rng.New(2), 1)
	if _, ok := newStepper(4, aloha).(*serialStepper); !ok {
		t.Error("a non-partitioned protocol should fall back to the serial path")
	}
	beb := baseline.NewExponentialBackoff(rng.New(3))
	st := newStepper(2, beb)
	if !st.hasWaker() {
		t.Error("staged stepper should surface the PartitionedWaker")
	}
	var p protocol.Partitioned = dba
	if p.Shards() != protocol.NumShards {
		t.Errorf("Shards() = %d, want %d", p.Shards(), protocol.NumShards)
	}
}
