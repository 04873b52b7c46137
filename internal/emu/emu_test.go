package emu

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// grid is the lossless-equivalence matrix: every registered protocol on
// a medium it pairs with, plus arrival/adversary variety, sized to run
// in test time.
var grid = []struct {
	name string
	cfg  Config
}{
	{"dba-coded-batch", Config{
		Protocol: "dba", Medium: "coded", Kappa: 8,
		Arrival: "batch", BatchN: 96, Horizon: 1, Drain: true,
		Seed: 11, Stations: 3,
	}},
	{"beb-classical-bernoulli", Config{
		Protocol: "beb", Medium: "classical:ternary",
		Arrival: "bernoulli", Rate: 0.02, Horizon: 1500, Drain: true,
		Seed: 23, Stations: 2,
	}},
	{"aloha-capture-poisson", Config{
		Protocol: "aloha", Medium: "capture:4", AlohaP: 0.01,
		Arrival: "poisson", Rate: 0.005, Horizon: 1200, Drain: true,
		Seed: 31, Stations: 2,
	}},
	{"genie-classical-binary-even", Config{
		Protocol: "genie", Medium: "classical:binary",
		Arrival: "even", Rate: 0.01, Horizon: 1200, Drain: true,
		Seed: 41, Stations: 3,
	}},
	{"mw-coded-burst", Config{
		Protocol: "mw", Medium: "coded:6", Kappa: 6,
		Arrival: "burst", Rate: 0.01, BurstWindow: 256, Horizon: 1024, Drain: true,
		Seed: 53, Stations: 2,
	}},
	{"robust-nocd-batch", Config{
		Protocol: "robust", Medium: "classical:none",
		Arrival: "batch", BatchN: 24, Horizon: 1, Drain: true,
		Seed: 61, Stations: 2,
	}},
	{"unbounded-nocd-batch", Config{
		Protocol: "unbounded", Medium: "classical:none",
		Arrival: "batch", BatchN: 24, Horizon: 1, Drain: true,
		Seed: 71, Stations: 3,
	}},
	{"dba-coded-adversary", Config{
		Protocol: "dba", Medium: "coded", Kappa: 8,
		Arrival: "bernoulli", Rate: 0.05, Horizon: 800, Drain: true,
		Adversary: "random:0.1", Seed: 83, Stations: 2,
	}},
}

// mustEqualSim fails unless the emulation Result is deeply equal to the
// simulator reference — the lossless correctness gate.
func mustEqualSim(t *testing.T, got *sim.Result, cfg Config) {
	t.Helper()
	want, err := SimReference(cfg)
	if err != nil {
		t.Fatalf("SimReference: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("emulation diverges from simulator:\n emu %s\n sim %s\n emu %+v\n sim %+v",
			got, want, got, want)
	}
}

// TestInprocMatchesSim is the correctness gate in swarm mode: over the
// lossless in-proc transport, every grid cell must reproduce the
// simulator's Result exactly.
func TestInprocMatchesSim(t *testing.T) {
	for _, tc := range grid {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			mustEqualSim(t, res.Sim, tc.cfg)
			for _, st := range res.Stations {
				if st.Conn.FramesSent == 0 || st.Conn.FramesRecv == 0 {
					t.Errorf("station %d moved no frames: %+v", st.Index, st.Conn)
				}
			}
		})
	}
}

// TestUDPMatchesSim runs the gate over real loopback UDP: the reliable
// link must deliver the same bytes, hence the same Result.
func TestUDPMatchesSim(t *testing.T) {
	for _, tc := range grid[:2] {
		tc := tc
		tc.cfg.Transport = "udp"
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			mustEqualSim(t, res.Sim, tc.cfg)
			for _, st := range res.Stations {
				if st.Conn.SegsSent == 0 || st.Conn.SegsRecv == 0 {
					t.Errorf("station %d moved no segments: %+v", st.Index, st.Conn)
				}
			}
		})
	}
}

// TestLossyUDPConverges injects datagram drops and duplicates on every
// link: the retransmit layer must absorb them — the run completes, the
// Result still matches the simulator exactly, and the stats prove
// faults actually fired.  Every link starts 64 segments below 2³², so
// the go-back-N window crosses the sequence-number wrap mid-run.
func TestLossyUDPConverges(t *testing.T) {
	initialSeq = 1<<32 - 64
	defer func() { initialSeq = 0 }()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := Config{
		Protocol: "dba", Medium: "coded", Kappa: 8,
		Arrival: "batch", BatchN: 48, Horizon: 1, Drain: true,
		Seed: 97, Stations: 3,
		Transport: "udp",
		Fault:     Fault{DropRate: 0.01, DupRate: 0.01, Seed: 5},
	}
	res, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("Run under faults: %v", err)
	}
	// The reliable layer makes the lossy link lossless at frame level.
	lossless := cfg
	lossless.Fault = Fault{}
	mustEqualSim(t, res.Sim, lossless)
	var drops, dups, retrans uint64
	for _, st := range res.Stations {
		drops += st.Conn.FaultDrops
		dups += st.Conn.FaultDups
		retrans += st.Conn.Retransmits
	}
	if drops == 0 || dups == 0 {
		t.Errorf("fault plan never fired: drops=%d dups=%d", drops, dups)
	}
	if retrans == 0 {
		t.Errorf("no retransmissions despite %d injected drops", drops)
	}
	for _, st := range res.Stations {
		if st.Conn.SegsSent <= 64 || st.Conn.SegsRecv <= 64 {
			t.Errorf("station %d link moved %d/%d segments; the run never crossed the wrap",
				st.Index, st.Conn.SegsSent, st.Conn.SegsRecv)
		}
	}
}

// TestDeadStationFailsLoudly starves the coordinator of one station's
// answers: the run must fail with an error naming that station, within
// the slot timeout — never hang.
func TestDeadStationFailsLoudly(t *testing.T) {
	cfg := Config{
		Protocol: "beb", Medium: "classical:ternary",
		Arrival: "batch", BatchN: 8, Horizon: 1, Drain: true,
		Seed: 1, Stations: 2,
		SlotTimeout: 200 * time.Millisecond,
	}
	a0, b0 := NewPipe()
	a1, b1 := NewPipe() // peer never speaks
	defer a0.Close()
	defer a1.Close()
	defer b1.Close()
	done := make(chan error, 1)
	go func() { done <- RunStation(b0, 5*time.Second) }()

	start := time.Now()
	_, err := Coordinate(context.Background(), cfg, []Transport{a0, a1})
	if err == nil {
		t.Fatal("Coordinate succeeded with a dead station")
	}
	if !strings.Contains(err.Error(), "station 1") {
		t.Errorf("error does not name the dead station: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dead station took %v to fail (want ≈ slot timeout)", elapsed)
	}
	// The live station must be released by the abort broadcast.
	select {
	case serr := <-done:
		if serr == nil {
			t.Error("live station exited without the coordinator error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live station hung after coordinator abort")
	}
}

// TestStationRejectsHostileCoordinator feeds a station garbage instead
// of the handshake: it must fail fast with an error, not hang.
func TestStationRejectsHostileCoordinator(t *testing.T) {
	a, b := NewPipe()
	defer a.Close()
	done := make(chan error, 1)
	go func() { done <- RunStation(b, 5*time.Second) }()
	if f, err := a.Recv(5 * time.Second); err != nil || f.Type != FrameHello {
		t.Fatalf("expected hello, got %v, %v", f, err)
	}
	if err := a.Send(&Frame{Type: FrameFeedback, Slot: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("station accepted a feedback frame as its config")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("station hung on hostile coordinator")
	}
	// The station must also have reported the failure to the wire.
	if f, err := a.Recv(5 * time.Second); err != nil || f.Type != FrameError {
		t.Errorf("expected error frame back, got %v, %v", f, err)
	}
}

// TestRunValidatesConfig exercises the loud-failure configuration paths.
func TestRunValidatesConfig(t *testing.T) {
	bad := []Config{
		{Protocol: "dba", Kappa: 8, Horizon: 1, Stations: 0},
		{Protocol: "nope", Kappa: 8, Horizon: 1, Stations: 1},
		{Protocol: "dba", Medium: "classical:ternary", Horizon: 1, Stations: 1},
		{Protocol: "beb", Medium: "warp", Horizon: 1, Stations: 1},
		{Protocol: "beb", Kappa: 8, Horizon: 1, Stations: 1, Arrival: "nope"},
		{Protocol: "beb", Kappa: 8, Horizon: 1, Stations: 1, Adversary: "nope"},
		{Protocol: "dba", Kappa: 0, Horizon: 1, Stations: 1},
		{Protocol: "dba", Kappa: 8, Horizon: 1, Stations: 1, Transport: "tcp"},
	}
	for _, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("Run accepted invalid config %+v", cfg)
		}
	}
}

// TestInvalidScenariosAreErrors: scenarios the engine would panic on —
// an adaptive adversary over a silence-masking medium, dba below its
// κ floor — come back as errors from both the emulation and the
// simulator reference.
func TestInvalidScenariosAreErrors(t *testing.T) {
	bad := map[string]Config{
		"reactive over classical:none": {Protocol: "beb", Medium: "classical:none",
			Adversary: "reactive:2/3", Arrival: "batch", BatchN: 8, Horizon: 1, Drain: true, Stations: 2},
		"dba at kappa 3": {Protocol: "dba", Kappa: 3,
			Arrival: "batch", BatchN: 8, Horizon: 1, Drain: true, Stations: 2},
	}
	for name, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
		if _, err := SimReference(cfg); err == nil {
			t.Errorf("%s: SimReference accepted it", name)
		}
	}
}

// TestNoCDProtocolOffClassicalNone: pairing a no-CD protocol with a
// sensing medium is a sweep grid-skip, not a validity rule, so the
// emulator runs it and matches the simulator.
func TestNoCDProtocolOffClassicalNone(t *testing.T) {
	cfg := Config{Protocol: "robust", Medium: "capture:4", Arrival: "batch", BatchN: 24,
		Horizon: 1, Drain: true, Seed: 5, Stations: 2}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Sim.Delivered != 24 {
		t.Fatalf("delivered %d of 24", res.Sim.Delivered)
	}
	mustEqualSim(t, res.Sim, cfg)
}

// TestRunHonorsContext: a cancelled context aborts the run promptly
// with the context's error.
func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := grid[0].cfg
	_, err := Run(ctx, cfg)
	if err == nil {
		t.Fatal("Run succeeded under a cancelled context")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error does not surface cancellation: %v", err)
	}
}
