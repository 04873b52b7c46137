package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// hostInfo is the host block every output records.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a snapshot of the process counters the benchmark reports as
// deltas over the measured phases.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// delta is the change in each counter between two snapshots, with the
// slots simulated in between.
type delta struct {
	wall, cpu float64 // seconds
	mallocs   float64
	gcs       float64
	pause     float64 // seconds
	slots     float64
}

func between(a, b usage, slots int64) delta {
	return delta{
		wall:    b.wall.Sub(a.wall).Seconds(),
		cpu:     (b.cpu - a.cpu).Seconds(),
		mallocs: float64(b.mallocs - a.mallocs),
		gcs:     float64(b.gcs - a.gcs),
		pause:   float64(b.pauseNs-a.pauseNs) / 1e9,
		slots:   float64(slots),
	}
}

func (d *delta) plus(o delta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.mallocs += o.mallocs
	d.gcs += o.gcs
	d.pause += o.pause
	d.slots += o.slots
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is stats.Quantile, or 0 for no samples: a run whose every
// operation failed reports that on its result line instead.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// quartiles returns the three cut points dividing xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spread report reads the same as any
// script that checks it.  xs must hold at least two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n, m := 4, len(d)+1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out
}
