// Command crnsim runs a single contention-resolution simulation on a
// chosen channel model — the Coded Radio Network Model or the classical
// collision channel — and reports throughput, backlog, latency, and
// slot statistics.
//
// Usage:
//
//	crnsim [-model coded|classical[:cd]|capture] [-protocol dba|beb|aloha|genie|mw|robust|unbounded] [-kappa K] [-arrival kind] ...
//
// Examples:
//
//	crnsim -protocol dba -kappa 64 -arrival batch -n 10000
//	crnsim -protocol genie -kappa 1 -arrival poisson -rate 0.35 -horizon 200000
//	crnsim -protocol dba -kappa 256 -arrival burst -window 16384 -rate 0.9
//	crnsim -model classical:none -protocol beb -arrival batch -n 2000
//	crnsim -model classical -protocol mw -arrival bernoulli -rate 0.2
//	crnsim -protocol dba -arrival bernoulli -rate 0.5 -adversary reactive:8/64
//	crnsim -model classical:none -protocol robust -arrival batch -n 2000
//	crnsim -model capture -kappa 8 -protocol unbounded -arrival batch -n 2000
//
// The flags form one scenario (internal/scenario, DESIGN.md §12); a
// scenario that breaks a validity rule exits 2 with the reason.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run
// (read them with go tool pprof), and -exectrace a runtime/trace
// execution trace (read it with go tool trace); they never change stdout:
//
//	crnsim -n 1000000 -kappa 64 -plot=false -cpuprofile cpu.out -memprofile mem.out
//	crnsim -n 1000000 -kappa 64 -plot=false -exectrace trace.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"repro/internal/asciiplot"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses argv, writes the report to stdout and
// diagnostics to stderr, and returns the exit status (2 for bad usage
// or an invalid scenario, 1 for a failed run or output file).
func run(argv []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("crnsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "coded", "channel model descriptor: coded[:K[/W]], classical[:none|binary|ternary], capture[:K]")
	protoName := fs.String("protocol", "dba", "protocol: dba, beb, aloha, genie, mw, robust, unbounded")
	kappa := fs.Int("kappa", 64, "decoding threshold κ (coded and capture models; dba needs ≥ 6)")
	arrivalName := fs.String("arrival", "batch", "arrival process: batch, bernoulli, poisson, even, burst")
	n := fs.Int("n", 10000, "batch size (arrival=batch)")
	rate := fs.Float64("rate", 0.5, "arrival rate (bernoulli/poisson/even) or window fill fraction (burst)")
	window := fs.Int64("window", scenario.DefaultBurstWindow, "burst window length (arrival=burst)")
	horizon := fs.Int64("horizon", 100000, "slots during which arrivals occur")
	drain := fs.Bool("drain", true, "keep running after the horizon until the system empties")
	seed := fs.Uint64("seed", 1, "random seed")
	alohaP := fs.Float64("aloha-p", scenario.DefaultAlohaP, "static ALOHA transmission probability (protocol=aloha)")
	adversaryDesc := fs.String("adversary", "none", "adversary: none, random:RATE, burst:B/GAP, reactive:TRIGGER/BURST, sigmarho:SIGMA/RHO")
	latencySamples := fs.Int("latency-samples", 0, "latency reservoir capacity for quantiles (0 = default, -1 = off)")
	workers := fs.Int("workers", 0, "staged-engine goroutines per run (0 = serial engine; results identical)")
	plot := fs.Bool("plot", true, "render the backlog time series")
	tracePath := fs.String("trace", "", "write the backlog time series to this CSV file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	execTrace := fs.String("exectrace", "", "write a runtime execution trace of the run to this file")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *n < 1 || *window < 1 { // the builder would read 0 as its default
		fmt.Fprintf(stderr, "crnsim: -n and -window must be at least 1\n")
		return 2
	}
	cfg, proto, arr, err := scenario.Scenario{
		Model:          *model,
		Protocol:       *protoName,
		Arrival:        *arrivalName,
		Kappa:          *kappa,
		Rate:           *rate,
		Adversary:      *adversaryDesc,
		Horizon:        *horizon,
		Drain:          *drain,
		LatencySamples: *latencySamples,
		BatchN:         *n,
		BurstWindow:    *window,
		AlohaP:         *alohaP,
	}.Build(*seed+1, *seed, nil)
	if err != nil {
		fmt.Fprintf(stderr, "crnsim: %v\n", err)
		return 2
	}
	cfg.Workers = *workers

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "crnsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "crnsim: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "crnsim: %v\n", err)
				code = 1
			}
		}()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			fmt.Fprintf(stderr, "crnsim: %v\n", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "crnsim: %v\n", err)
			return 1
		}
		defer func() {
			trace.Stop()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "crnsim: %v\n", err)
				code = 1
			}
		}()
	}
	res := sim.Run(cfg, proto, arr)
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintf(stderr, "crnsim: %v\n", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "protocol:   %s\n", res.Protocol)
	fmt.Fprintf(stdout, "arrivals:   %s (%d packets)\n", res.Arrival, res.Arrivals)
	fmt.Fprintf(stdout, "channel:    %s κ=%d  good=%d bad=%d silent=%d jammed=%d events=%d\n",
		res.Medium, res.Kappa, res.Channel.GoodSlots, res.Channel.BadSlots,
		res.Channel.SilentSlots, res.Channel.JammedSlots, res.Channel.Events)
	fmt.Fprintf(stdout, "delivered:  %d (pending %d) in %d slots\n", res.Delivered, res.Pending, res.Elapsed)
	fmt.Fprintf(stdout, "throughput: %.4f (first arrival to last delivery)\n", res.CompletionThroughput())
	fmt.Fprintf(stdout, "backlog:    max %d\n", res.MaxBacklog)
	if res.Delivered > 0 {
		if res.LatencySample != nil {
			fmt.Fprintf(stdout, "latency:    p50=%.0f p99=%.0f max=%.0f mean=%.1f slots\n",
				res.LatencyQuantile(0.50), res.LatencyQuantile(0.99),
				res.Latency.Max(), res.Latency.Mean())
		} else {
			fmt.Fprintf(stdout, "latency:    max=%.0f mean=%.1f slots (quantiles off)\n",
				res.Latency.Max(), res.Latency.Mean())
		}
	}
	if *tracePath != "" {
		err := report.SaveSeriesCSV(*tracePath, "slot", "backlog",
			res.BacklogSeries.T, res.BacklogSeries.V)
		if err != nil {
			fmt.Fprintf(stderr, "crnsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace:      %s (%d points)\n", *tracePath, res.BacklogSeries.Len())
	}
	if *plot && res.BacklogSeries.Len() > 1 {
		p := asciiplot.Plot{
			Title: "backlog over time", XLabel: "slot", YLabel: "pending packets",
			Width: 64, Height: 12,
		}
		xs := make([]float64, res.BacklogSeries.Len())
		for i := range xs {
			xs[i] = float64(res.BacklogSeries.T[i])
		}
		p.Add(asciiplot.Series{Name: res.Protocol, X: xs, Y: res.BacklogSeries.V})
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, p.Render())
	}
	return 0
}

// writeMemProfile writes the heap profile's allocation samples,
// collected over the whole run, to path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // bring the profile's sampled counts up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
