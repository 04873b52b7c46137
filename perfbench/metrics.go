package main

import "strings"

// metricDef names one reported metric; BENCHMARK.json lists the same
// metrics (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndMetrics are printed by every untraced run, on every workload.
// An "op" is the workload's unit of work a user waits for: one 10⁶-packet
// batch on batch_e15, one grid cell on sweep_drain, one slot (the
// interval between successive Begin frames on link 0) on emu_udp.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"slots_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"completion_thpt", "1/slot", "higher"},
}

// perLayerMetrics are printed by every traced run, on every workload; a
// layer the workload does not reach reads 0.  Times and counts are
// per traced repetition.
var perLayerMetrics = []metricDef{
	{"sim.slots_stepped", "count", "lower"},
	{"sim.slots_coasted", "count", "higher"},
	{"sim.slots_skipped", "count", "higher"},
	{"sim.self_s", "s", "lower"},
	{"protocol.transmitters_s", "s", "lower"},
	{"protocol.observe_s", "s", "lower"},
	{"protocol.inject_s", "s", "lower"},
	{"protocol.wake_s", "s", "lower"},
	{"protocol.tx_total", "count", "lower"},
	{"protocol.useful_tx_frac", "frac", "higher"},
	{"core.epochs_silent", "count", "lower"},
	{"core.epochs_successful", "count", "higher"},
	{"core.epochs_overfull", "count", "lower"},
	{"core.error_epochs", "count", "lower"},
	{"medium.step_s", "s", "lower"},
	{"medium.step_calls", "count", "lower"},
	{"medium.repeat_calls", "count", "higher"},
	{"medium.repeat_hit_frac", "frac", "higher"},
	{"medium.silent_added", "count", "higher"},
	{"medium.good_frac", "frac", "higher"},
	{"arrival.injections_s", "s", "lower"},
	{"arrival.nextafter_calls", "count", "lower"},
	{"sweep.exec_s", "s", "lower"},
	{"sweep.sched_self_s", "s", "lower"},
	{"sweep.assemble_s", "s", "lower"},
	{"cache.get_calls", "count", "lower"},
	{"cache.get_s", "s", "lower"},
	{"cache.get_hit_frac", "frac", "higher"},
	{"cache.claim_calls", "count", "lower"},
	{"cache.claim_s", "s", "lower"},
	{"cache.claim_granted_frac", "frac", "higher"},
	{"cache.put_calls", "count", "lower"},
	{"cache.put_s", "s", "lower"},
	{"cache.list_calls", "count", "lower"},
	{"emu.frames_sent", "count", "lower"},
	{"emu.frames_recv", "count", "lower"},
	{"emu.bytes_per_slot", "B", "lower"},
	{"emu.send_s", "s", "lower"},
	{"emu.recv_wait_s", "s", "lower"},
	{"emu.coord_self_s", "s", "lower"},
	{"emu.station_recv_wait_s", "s", "lower"},
	{"emu.station_self_s", "s", "lower"},
	{"emu.slot_p50_us", "us", "lower"},
	{"emu.slot_p99_us", "us", "lower"},
	{"udp.segs_per_frame", "count", "lower"},
	{"udp.retransmits", "count", "lower"},
	{"udp.dup_segs", "count", "lower"},
	{"udp.rtt_ms", "ms", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"host.gc_pause_s", "s", "lower"},
	{"host.allocs_per_slot", "count", "lower"},
	{"host.cpu_util", "frac", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}

// workloadDef describes one workload: why it exists, its default seed
// (matching the committed artifacts), the name of its timed operation's
// span, and its constructor.
type workloadDef struct {
	name        string
	why         string
	defaultSeed uint64
	opName      string
	make        func(opts runOptions) (workload, error)
}

var workloads = []workloadDef{
	{
		name:        "batch_e15",
		why:         "Theorem 16 run: one 10^6-packet dba batch on coded kappa=64; loads the slot engine heaviest (arena working set far above cache, coast, big Steps) and no other layer",
		defaultSeed: 1,
		opName:      "sim.Run",
		make:        newBatchE15,
	},
	{
		name:        "sweep_drain",
		why:         "bench_spec.json grid drained by one work-stealing worker into a fresh filesystem store, then assembled: thousands of small cache-resident trials; only workload on the scheduler and store",
		defaultSeed: 2022,
		opName:      "sweep.drain",
		make:        newSweepDrain,
	},
	{
		name:        "emu_udp",
		why:         "dba/coded kappa=8 10^4-packet batch over 3 stations on loopback UDP: loads the frame codec, slot barrier and reliable-UDP layers, the engine hardly at all",
		defaultSeed: 7,
		opName:      "emu.Coordinate",
		make:        newEmuUDP,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
