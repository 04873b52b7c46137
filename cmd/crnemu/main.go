// Command crnemu runs a slot-synchronized real-network emulation of a
// contention-resolution scenario: every station is its own goroutine
// (or OS process) holding a full protocol replica, and a coordinator
// adjudicates each slot on the chosen channel model over a framed wire
// protocol (see internal/emu).  Over a lossless transport the emulation
// reproduces the simulator's Result exactly; -transport sim runs the
// plain simulator on the identical configuration and emits the same
// artifact, so the equivalence is checkable with cmp(1).
//
// Usage:
//
//	crnemu [-stations N] [-transport inproc|udp|sim] [-model M] [-protocol P] ...
//	crnemu -listen :9753 -stations 2 ...      # multi-process coordinator
//	crnemu -join HOST:9753                    # multi-process station
//
// Examples:
//
//	crnemu -protocol dba -kappa 8 -stations 4 -arrival batch -n 500
//	crnemu -transport udp -protocol beb -model classical:ternary -arrival bernoulli -rate 0.02 -horizon 20000
//	crnemu -transport udp -drop 0.01 -dup 0.01 -stats-interval 1s -protocol dba -kappa 8 -n 2000
//	crnemu -transport sim -protocol dba -kappa 8 -n 500 -json
//
// The scenario flags form one scenario (internal/scenario, DESIGN.md
// §12); a scenario that breaks a validity rule exits 2 with the reason.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/emu"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "crnemu: %v\n", err)
	os.Exit(1)
}

// artifact is the deterministic JSON the -json flag emits.  It carries
// the engine Result plus explicit latency aggregates (the Result's
// Summary/Reservoir fields are opaque to encoding/json), and nothing
// transport-dependent — so emulation and -transport sim artifacts for
// the same scenario are byte-comparable.
type artifact struct {
	Result  *sim.Result      `json:"result"`
	Latency *latencyArtifact `json:"latency,omitempty"`
}

type latencyArtifact struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

func makeArtifact(res *sim.Result) artifact {
	a := artifact{Result: res}
	if res.Delivered > 0 && res.LatencySample != nil && res.LatencySample.Len() > 0 {
		a.Latency = &latencyArtifact{
			N:    res.Latency.N(),
			Mean: res.Latency.Mean(),
			Min:  res.Latency.Min(),
			Max:  res.Latency.Max(),
			P50:  res.LatencyQuantile(0.50),
			P90:  res.LatencyQuantile(0.90),
			P99:  res.LatencyQuantile(0.99),
		}
	}
	return a
}

func emitResult(res *sim.Result, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(makeArtifact(res)); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("protocol:   %s\n", res.Protocol)
	fmt.Printf("arrivals:   %s (%d packets)\n", res.Arrival, res.Arrivals)
	fmt.Printf("channel:    %s κ=%d  good=%d bad=%d silent=%d jammed=%d events=%d\n",
		res.Medium, res.Kappa, res.Channel.GoodSlots, res.Channel.BadSlots,
		res.Channel.SilentSlots, res.Channel.JammedSlots, res.Channel.Events)
	fmt.Printf("delivered:  %d (pending %d) in %d slots\n", res.Delivered, res.Pending, res.Elapsed)
	fmt.Printf("throughput: %.4f (first arrival to last delivery)\n", res.CompletionThroughput())
	fmt.Printf("backlog:    max %d\n", res.MaxBacklog)
	if res.Delivered > 0 && res.LatencySample != nil {
		fmt.Printf("latency:    p50=%.0f p99=%.0f max=%.0f mean=%.1f slots\n",
			res.LatencyQuantile(0.50), res.LatencyQuantile(0.99),
			res.Latency.Max(), res.Latency.Mean())
	}
}

// statsLine renders one transport's counters the way the ticker and the
// final summary both print them.
func statsLine(label string, s emu.ConnStats) string {
	return fmt.Sprintf("%s frames=%d/%d bytes=%d/%d segs=%d/%d retrans=%d dup=%d faultDrop=%d faultDup=%d q=%d/%d rtt=%.2fms",
		label, s.FramesSent, s.FramesRecv, s.BytesSent, s.BytesRecv,
		s.SegsSent, s.SegsRecv, s.Retransmits, s.DupSegs,
		s.FaultDrops, s.FaultDups, s.SendQueue, s.RecvQueue, s.RTTMillis)
}

// watchStats prints per-link stats to stderr every interval until stop
// is closed.  Rates are derivable from successive cumulative lines.
func watchStats(interval time.Duration, links []emu.Transport, stop <-chan struct{}) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for i, l := range links {
				fmt.Fprintln(os.Stderr, "crnemu: "+statsLine(fmt.Sprintf("station %d:", i), l.Stats()))
			}
		}
	}
}

func main() {
	model := flag.String("model", "coded", "channel model descriptor: coded[:K[/W]], classical[:none|binary|ternary], capture[:K]")
	protoName := flag.String("protocol", "dba", "protocol: dba, beb, aloha, genie, mw, robust, unbounded")
	kappa := flag.Int("kappa", 64, "decoding threshold κ when the model descriptor embeds none")
	arrivalName := flag.String("arrival", "batch", "arrival process: batch, bernoulli, poisson, even, burst")
	n := flag.Int("n", 10000, "batch size (arrival=batch)")
	rate := flag.Float64("rate", 0.5, "arrival rate (bernoulli/poisson/even) or window fill fraction (burst)")
	window := flag.Int("window", scenario.DefaultBurstWindow, "burst window length (arrival=burst)")
	horizon := flag.Int64("horizon", 100000, "slots during which arrivals occur")
	drain := flag.Bool("drain", true, "keep running after the horizon until the system empties")
	seed := flag.Uint64("seed", 1, "random seed")
	alohaP := flag.Float64("aloha-p", scenario.DefaultAlohaP, "static ALOHA transmission probability (protocol=aloha)")
	adversaryDesc := flag.String("adversary", "none", "adversary: none, random:RATE, burst:B/GAP, reactive:TRIGGER/BURST, sigmarho:SIGMA/RHO")
	latencySamples := flag.Int("latency-samples", 0, "latency reservoir capacity for quantiles (0 = default, -1 = off)")

	stations := flag.Int("stations", 4, "number of stations packets are partitioned over")
	transport := flag.String("transport", "inproc", "swarm transport: inproc, udp (loopback), or sim (plain simulator, same artifact)")
	listenAddr := flag.String("listen", "", "coordinate a multi-process run on this UDP address (host:port) instead of swarm mode")
	joinAddr := flag.String("join", "", "run as one station joining the coordinator at this UDP address")
	dropRate := flag.Float64("drop", 0, "inject: drop each outgoing datagram with this probability (UDP)")
	dupRate := flag.Float64("dup", 0, "inject: duplicate each outgoing datagram with this probability (UDP)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the fault-injection stream")
	slotTimeout := flag.Duration("slot-timeout", 10*time.Second, "coordinator patience per station per slot barrier")
	statsInterval := flag.Duration("stats-interval", 0, "print live per-connection transport stats to stderr at this period (0 = off)")
	asJSON := flag.Bool("json", false, "emit the run artifact as JSON on stdout")
	flag.Parse()

	fault := emu.Fault{DropRate: *dropRate, DupRate: *dupRate, Seed: *faultSeed}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Station process: join the coordinator and obey its slot barrier.
	if *joinAddr != "" {
		t, err := emu.DialUDP(*joinAddr, fault)
		if err != nil {
			fatal(err)
		}
		defer t.Close()
		stop := make(chan struct{})
		go watchStats(*statsInterval, []emu.Transport{t}, stop)
		err = emu.RunStation(t, 2*(*slotTimeout))
		close(stop)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "crnemu: "+statsLine("station done:", t.Stats()))
		return
	}

	cfg := emu.Config{
		Protocol:       *protoName,
		Medium:         *model,
		Kappa:          *kappa,
		Arrival:        *arrivalName,
		Rate:           *rate,
		BatchN:         *n,
		BurstWindow:    *window,
		AlohaP:         *alohaP,
		Adversary:      *adversaryDesc,
		Horizon:        *horizon,
		Drain:          *drain,
		Seed:           *seed,
		LatencySamples: *latencySamples,
		Stations:       *stations,
		Transport:      *transport,
		Fault:          fault,
		SlotTimeout:    *slotTimeout,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "crnemu: %v\n", err)
		os.Exit(2)
	}
	// Reference mode: the simulator on the identical configuration,
	// emitting the identical artifact — the cmp target for the
	// lossless-equals-simulator gate.
	if *transport == "sim" {
		res, err := emu.SimReference(cfg)
		if err != nil {
			fatal(err)
		}
		emitResult(res, *asJSON)
		return
	}

	// Establish the station links, spawning local stations per mode.
	var links []emu.Transport
	var wg sync.WaitGroup
	stationErrs := make([]error, cfg.Stations)
	spawn := func(i int, t emu.Transport) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer t.Close()
			stationErrs[i] = emu.RunStation(t, 2*(*slotTimeout))
		}()
	}
	switch {
	case *listenAddr != "":
		ln, err := emu.ListenUDP(*listenAddr, fault)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "crnemu: coordinating on %s, waiting for %d stations\n", ln.Addr(), cfg.Stations)
		for i := 0; i < cfg.Stations; i++ {
			t, err := ln.Accept(*slotTimeout * 6)
			if err != nil {
				fatal(fmt.Errorf("accepting station %d/%d: %w", i+1, cfg.Stations, err))
			}
			fmt.Fprintf(os.Stderr, "crnemu: station %d joined\n", i)
			links = append(links, t)
		}
	case *transport == "inproc":
		for i := 0; i < cfg.Stations; i++ {
			a, b := emu.NewPipe()
			links = append(links, a)
			spawn(i, b)
		}
	case *transport == "udp":
		ln, err := emu.ListenUDP("127.0.0.1:0", fault)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		for i := 0; i < cfg.Stations; i++ {
			stFault := fault
			if fault.DropRate > 0 || fault.DupRate > 0 {
				stFault.Seed = fault.Seed ^ (0xbf58476d1ce4e5b9 * uint64(i+1))
			}
			t, err := emu.DialUDP(ln.Addr(), stFault)
			if err != nil {
				fatal(err)
			}
			spawn(i, t)
		}
		for i := 0; i < cfg.Stations; i++ {
			t, err := ln.Accept(*slotTimeout)
			if err != nil {
				fatal(fmt.Errorf("accepting station %d/%d: %w", i+1, cfg.Stations, err))
			}
			links = append(links, t)
		}
	default:
		fatal(fmt.Errorf("unknown transport %q (want inproc, udp, or sim)", *transport))
	}

	stop := make(chan struct{})
	go watchStats(*statsInterval, links, stop)
	res, err := emu.Coordinate(ctx, cfg, links)
	close(stop)
	for i, l := range links {
		if err == nil {
			// Let the final Done frames be acknowledged before teardown so
			// lossy links do not orphan their station.
			deadline := time.Now().Add(2 * time.Second)
			for l.Stats().SendQueue > 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}
		fmt.Fprintln(os.Stderr, "crnemu: "+statsLine(fmt.Sprintf("station %d:", i), l.Stats()))
		l.Close()
	}
	wg.Wait()
	if err != nil {
		fatal(err)
	}
	for i, serr := range stationErrs {
		if serr != nil {
			fmt.Fprintf(os.Stderr, "crnemu: station %d: %v\n", i, serr)
		}
	}
	emitResult(res, *asJSON)
}
