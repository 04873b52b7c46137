package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// spreadReport runs the benchmark n times as child processes, on seeds
// opts.seed .. opts.seed+n-1 (or n times on opts.seed with sameSeed),
// and prints each metric's median, first and third quartile, and the
// quartile distance as a share of the median — the figure the
// benchmark's bounds are judged against.  With sameSeed the spread is
// the host's and the harness's alone, without the inputs'.
func spreadReport(w io.Writer, opts runOptions, n int, sameSeed bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	correct := true
	for i := 0; i < n; i++ {
		seed := opts.seed
		if !sameSeed {
			seed += uint64(i)
		}
		trace := "0"
		if opts.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", opts.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64), "--trace", trace)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res struct {
			Correct bool                   `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d (seed %d): result line: %w", i, seed, err)
		}
		correct = correct && res.Correct
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: spread run %d/%d (seed %d):", i+1, n, seed)
		for _, m := range endToEndMetrics {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(os.Stderr, " %s=%.6g", m.Name, v.Value)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s (%d runs, %gs each, trace=%v, same seed=%v)\tunit\tmedian\tq1\tq3\t(q3-q1)/median\t\n", opts.workload, n, opts.seconds, opts.trace, sameSeed)
	for _, name := range names {
		q := quartiles(values[name])
		rel := 0.0
		if q[1] != 0 {
			rel = (q[2] - q[0]) / q[1]
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t\n", name, units[name], q[1], q[0], q[2], rel)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "all runs correct: %v\n", correct)
	return nil
}
