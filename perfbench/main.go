// Command perfbench is the repository's benchmark.  It runs one named
// workload in this process for a fixed time, checks its outputs, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1).  The last line of standard output is
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and the line before it records the host, the workload and where the
// spans of a traced run were written.
//
// Every layer is measured from outside the program: decorators defined
// here wrap the protocol, medium and arrival process handed to sim.Run,
// the cache.Backend handed to sweep.RunWorker and sweep.Assemble, and
// the emu.Transport links handed to emu.Coordinate and emu.RunStation.
//
// With --spread N it instead runs itself N times on consecutive seeds
// (or on one seed, with --same-seed) and prints every metric's median,
// quartiles and relative spread.
//
// Run it from the root of the repository: bash perfbench/run.sh --help.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOptions are the command-line settings of one benchmark process.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string    // scratch directory for stores and spans
	cost     timerCost // of one timed call, calibrated for a traced run
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: batch_e15, sweep_drain or emu_udp")
	seed := fs.Int64("seed", -1, "input seed (-1 = the workload's default, which matches the committed artifacts)")
	seconds := fs.Float64("seconds", 25, "how long to keep starting repetitions of the workload")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	spread := fs.Int("spread", 0, "run N processes on seeds seed..seed+N-1 and report each metric's median and quartiles")
	sameSeed := fs.Bool("same-seed", false, "with --spread, run every process on the same seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	opts := runOptions{
		workload: w.name,
		seed:     w.defaultSeed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      filepath.Join(".bench_build", "perfbench"),
	}
	if *seed >= 0 {
		opts.seed = uint64(*seed)
	}
	if *sameSeed && *spread == 0 {
		return errors.New("--same-seed needs --spread")
	}
	if *spread > 0 {
		if *spread < 2 {
			return errors.New("--spread needs at least 2 runs")
		}
		return spreadReport(os.Stdout, opts, *spread, *sameSeed)
	}
	if opts.trace {
		opts.cost = calibrateTimer()
	}
	return measure(w, opts)
}

// repResult is what the harness and the workload record about one
// repetition.
type repResult struct {
	traced    bool
	slots     int64
	ops       []float64 // per-operation wall times, ms
	thpt      float64   // completion throughput
	attempted int64
	failed    int64
	problems  []string
	// slotIntervals are the emulator's Begin-to-Begin intervals, µs.
	slotIntervals []float64
	// layers holds the traced repetition's per-layer sums; keys starting
	// with "_" are inputs to ratios, not metrics.
	layers map[string]float64
}

func (r *repResult) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.  The harness calls
// setup (timed as set-up), run (timed as the operation), then collect,
// which checks the outputs, releases the repetition's resources and
// reports what it measured.  discard releases a repetition that was set
// up only to sample set-up time.
type workload interface {
	setup(seed uint64, traced bool) error
	run(spans *spanLog, rep, parent int) error
	collect(r *repResult)
	discard()
}

// setupRounds is how many set-up samples a run takes at least; setup_s
// is their median.
const setupRounds = 41

// setupSampleTarget is the set-up time one sample sums: a few-microsecond
// set-up timed alone reads mostly clock jitter, and on a shared host a
// sample of one set-up of any size reads mostly the scheduler.
const setupSampleTarget = 5 * time.Millisecond

// setupSampler times the workload's set-up in rounds of its own, all
// under the same conditions: each sample starts on a freshly collected
// heap and is the mean of enough consecutive set-ups to sum to about
// setupSampleTarget; the matching discards are not timed.  Samples are
// taken between repetitions, so they see the host over the same window
// as the operations, and the median does not depend on how many
// repetitions fit in the run.
type setupSampler struct {
	w       workload
	seed    uint64
	per     int
	samples []float64
}

func newSetupSampler(w workload, seed uint64) (*setupSampler, error) {
	s := &setupSampler{w: w, seed: seed}
	if _, err := s.one(); err != nil {
		return nil, err
	}
	est, err := s.one()
	if err != nil {
		return nil, err
	}
	s.per = min(max(int(setupSampleTarget/(est+1)), 1), 5000)
	return s, nil
}

func (s *setupSampler) one() (time.Duration, error) {
	t0 := time.Now()
	err := s.w.setup(s.seed, false)
	d := time.Since(t0)
	s.w.discard()
	return d, err
}

// sample takes n samples.
func (s *setupSampler) sample(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		var sum time.Duration
		for j := 0; j < s.per; j++ {
			d, err := s.one()
			if err != nil {
				return err
			}
			sum += d
		}
		s.samples = append(s.samples, sum.Seconds()/float64(s.per))
	}
	return nil
}

// repSeed is the input seed of the k-th repetition of a run: the run's
// seed itself first, then seeds derived from it.  Spreading a run over
// several inputs keeps its averages from hanging on one input's
// peculiarities (on batch_e15, allocations per batch differ threefold
// between protocol seeds).
func repSeed(seed uint64, k int) uint64 {
	return seed + uint64(k)*0x9e3779b97f4a7c15
}

// measure runs the workload for the configured time and prints the
// detail and result lines.
func measure(wd workloadDef, opts runOptions) error {
	w, err := wd.make(opts)
	if err != nil {
		return err
	}
	if c, ok := w.(interface{ close() }); ok {
		defer c.close()
	}
	var spans *spanLog
	if opts.trace {
		spans = newSpanLog(time.Now())
	}
	var (
		plain, traced     []delta
		ops, thpt         []float64
		slotIntervals     []float64
		attempted, failed int64
		problems          []string
		layers            = map[string]float64{}
	)
	// A traced run alternates untraced and traced repetitions of the same
	// input, so the tracing overhead is measured under the same
	// conditions and the two Results can be compared.
	minReps, perSeed := 1, 1
	if opts.trace {
		minReps, perSeed = 2, 2
	}
	setups, err := newSetupSampler(w, opts.seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", wd.name, err)
	}
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds() < opts.seconds; rep++ {
		if err := setups.sample(2); err != nil {
			return fmt.Errorf("%s set-up: %w", wd.name, err)
		}
		rr := repResult{traced: opts.trace && rep%2 == 1, layers: map[string]float64{}}
		var sp *spanLog
		if rr.traced {
			sp = spans
		}
		root := sp.begin(rep, -1, wd.name)
		setupSpan := sp.begin(rep, root, "setup")
		if err := w.setup(repSeed(opts.seed, rep/perSeed), rr.traced); err != nil {
			return fmt.Errorf("%s set-up: %w", wd.name, err)
		}
		sp.end(setupSpan)
		opSpan := sp.begin(rep, root, wd.opName)
		u0 := snapshot()
		runErr := w.run(sp, rep, opSpan)
		u1 := snapshot()
		sp.end(opSpan)
		if runErr != nil {
			rr.problem("repetition %d: %v", rep, runErr)
		}
		w.collect(&rr)
		sp.end(root)

		d := between(u0, u1, rr.slots)
		if rr.traced {
			traced = append(traced, d)
			for k, v := range rr.layers {
				layers[k] += v
			}
		} else {
			plain = append(plain, d)
			ops = append(ops, rr.ops...)
			thpt = append(thpt, rr.thpt)
			slotIntervals = append(slotIntervals, rr.slotIntervals...)
		}
		attempted += rr.attempted
		failed += rr.failed
		problems = append(problems, rr.problems...)
	}
	if err := setups.sample(setupRounds - len(setups.samples)); err != nil {
		return fmt.Errorf("%s set-up: %w", wd.name, err)
	}
	if len(plain) == 0 || len(ops) == 0 {
		problems = append(problems, "no untraced repetition completed an operation")
	}

	var metrics map[string]metricValue
	if !opts.trace {
		metrics = endToEnd(plain, ops, setups.samples, thpt)
	} else {
		metrics = perLayer(layers, plain, traced, slotIntervals)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	detail := map[string]interface{}{
		"benchmark":   "perfbench",
		"workload":    wd.name,
		"why":         wd.why,
		"seed":        opts.seed,
		"seconds":     opts.seconds,
		"trace":       opts.trace,
		"host":        host(),
		"repetitions": len(plain) + len(traced),
		"traced_reps": len(traced),
		"problems":    problems,
		"rep_rates":   rates(plain),
		"setups_s":    setups.samples,
	}
	if opts.trace {
		path, err := spans.write(opts.dir, map[string]interface{}{"host": host(), "workload": wd.name, "seed": opts.seed})
		if err != nil {
			return err
		}
		detail["spans"] = path
		detail["span_self_s"] = spans.selfSeconds()
		detail["slots_per_s_untraced"] = rate(plain)
		detail["slots_per_s_traced"] = rate(traced)
		detail["timer_cost_ns"] = map[string]float64{"in_span": opts.cost.inSpan * 1e9, "total": opts.cost.total * 1e9}
	}
	if err := printJSON(detail); err != nil {
		return err
	}
	return printJSON(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(problems) == 0 && failed == 0, attempted, failed, metrics})
}

func printJSON(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rate is simulated slots per second over the repetitions' timed
// operations.  It weighs every repetition by its length rather than
// taking a median, because repetitions differ by input as well as by
// noise: on batch_e15 some protocol seeds allocate three times as much
// as others and run markedly slower, and a median would jump between
// those two groups from run to run.
func rate(reps []delta) float64 {
	var total delta
	for _, d := range reps {
		total.plus(d)
	}
	if total.wall == 0 {
		return 0
	}
	return total.slots / total.wall
}

// rates lists each repetition's simulated slots per second.
func rates(reps []delta) []float64 {
	out := make([]float64, len(reps))
	for i, d := range reps {
		out[i] = d.slots / d.wall
	}
	return out
}

// endToEnd computes the end-to-end metrics from the untraced
// repetitions.
func endToEnd(reps []delta, ops, setups, thpt []float64) map[string]metricValue {
	v := map[string]float64{
		"setup_s":         quantile(setups, 0.5),
		"slots_per_s":     rate(reps),
		"op_p50_ms":       quantile(ops, 0.5),
		"op_p90_ms":       quantile(ops, 0.9),
		"peak_rss_mb":     peakRSSMB(),
		"completion_thpt": mean(thpt),
	}
	return withUnits(endToEndMetrics, v)
}

// mean is the mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer computes the per-layer metrics: per-repetition means of the
// traced repetitions' sums, the ratios, and the tracing overhead.
func perLayer(sum map[string]float64, plain, traced []delta, slotIntervals []float64) map[string]metricValue {
	var host delta
	for _, d := range traced {
		host.plus(d)
	}
	reps := float64(len(traced))
	v := map[string]float64{}
	for _, m := range perLayerMetrics {
		v[m.Name] = sum[m.Name] / reps
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["protocol.useful_tx_frac"] = ratio(sum["_delivered"], sum["protocol.tx_total"])
	v["medium.repeat_hit_frac"] = ratio(sum["_repeat_hits"], sum["medium.repeat_calls"])
	v["medium.good_frac"] = ratio(sum["_good_slots"], sum["_elapsed"])
	v["cache.get_hit_frac"] = ratio(sum["_get_hits"], sum["cache.get_calls"])
	v["cache.claim_granted_frac"] = ratio(sum["_claim_grants"], sum["cache.claim_calls"])
	v["emu.bytes_per_slot"] = ratio(sum["_bytes"], sum["_begins"])
	v["udp.segs_per_frame"] = ratio(sum["_segs"], sum["_frames"])
	v["udp.rtt_ms"] = ratio(sum["_rtt_ms"], sum["_rtt_n"])
	v["host.gc_cycles"] = host.gcs / reps
	v["host.gc_pause_s"] = host.pause / reps
	v["host.allocs_per_slot"] = ratio(host.mallocs, host.slots)
	v["host.cpu_util"] = ratio(host.cpu, host.wall*float64(runtime.GOMAXPROCS(0)))
	v["emu.slot_p50_us"] = quantile(slotIntervals, 0.5)
	v["emu.slot_p99_us"] = quantile(slotIntervals, 0.99)
	v["trace.overhead_frac"] = 1 - ratio(rate(traced), rate(plain))
	return withUnits(perLayerMetrics, v)
}

func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		out[m.Name] = metricValue{Value: v[m.Name], Unit: m.Unit}
	}
	return out
}
