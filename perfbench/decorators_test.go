package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/arrival"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"

	_ "repro/internal/baseline"
	_ "repro/internal/nocd"
)

// capabilities lists the optional engine interfaces v implements.
func capabilities(v interface{}) []string {
	var out []string
	add := func(ok bool, name string) {
		if ok {
			out = append(out, name)
		}
	}
	_, ok := v.(protocol.Waker)
	add(ok, "Waker")
	_, ok = v.(protocol.Coaster)
	add(ok, "Coaster")
	_, ok = v.(protocol.Partitioned)
	add(ok, "Partitioned")
	_, ok = v.(protocol.PartitionedWaker)
	add(ok, "PartitionedWaker")
	_, ok = v.(medium.Sharded)
	add(ok, "Sharded")
	_, ok = v.(medium.Repeater)
	add(ok, "Repeater")
	_, ok = v.(interface{ MasksSilence() bool })
	add(ok, "MasksSilence")
	_, ok = v.(arrival.Observer)
	add(ok, "Observer")
	return out
}

// pairs returns every registered protocol × medium model pair the sweep
// layer allows: coded-only protocols on coded, no-CD protocols on
// classical:none.
func pairs() [][2]string {
	var out [][2]string
	for _, info := range protocol.Registered() {
		for _, model := range medium.Models {
			spec, err := medium.ParseSpec(model)
			if err != nil {
				panic(err)
			}
			if info.CodedOnly && spec.Model != "coded" {
				continue
			}
			if info.NoCDOnly && !(spec.Model == "classical" && spec.CD == medium.CDNone) {
				continue
			}
			out = append(out, [2]string{info.Name, model})
		}
	}
	return out
}

// TestDecoratorsKeepCapabilitiesAndResults wraps every registered
// protocol × medium pair, with an observing and a plain arrival process,
// and checks that each wrapper has exactly its inner value's optional
// interfaces, that sim.Run returns a byte-identical Result through the
// wrappers on the serial and the staged engine, and that every slot is
// accounted stepped, coasted or skipped exactly once.
func TestDecoratorsKeepCapabilitiesAndResults(t *testing.T) {
	arrivals := map[string]func() arrival.Process{
		"bernoulli": func() arrival.Process { return &arrival.Bernoulli{Rate: 0.2} },
		"capped": func() arrival.Process {
			return arrival.NewCap(&arrival.Bernoulli{Rate: 0.4}, 64, 16)
		},
	}
	const kappa = 8
	for _, pair := range pairs() {
		for arrName, newArr := range arrivals {
			for _, workers := range []int{0, 3} {
				name := pair[0] + "/" + pair[1] + "/" + arrName
				build := func(traced bool) (*sim.Result, *engineStats) {
					proto := protocol.Build(pair[0], protocol.Params{Kappa: kappa, Rand: rng.New(5), AlohaP: 0.05})
					med, err := medium.New(pair[1], kappa, 0)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					arr := newArr()
					var es *engineStats
					if traced {
						es = &engineStats{}
						wp, wm, wa := wrapProtocol(proto, es), wrapMedium(med, es), wrapArrival(arr, es)
						for _, c := range [][2]interface{}{{proto, wp}, {med, wm}, {arr, wa}} {
							if got, want := capabilities(c[1]), capabilities(c[0]); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: wrapper of %T has %v, inner has %v", name, c[0], got, want)
							}
						}
						proto, med, arr = wp, wm, wa
					}
					cfg := sim.Config{Kappa: kappa, Horizon: 3000, Drain: true, DrainLimit: 1 << 16, Seed: 11, Medium: med, Workers: workers}
					return sim.Run(cfg, proto, arr), es
				}
				plain, _ := build(false)
				traced, es := build(true)
				a, err := resultJSON(plain)
				if err != nil {
					t.Fatal(err)
				}
				b, err := resultJSON(traced)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Errorf("%s workers=%d: Result through the decorators differs", name, workers)
				}
				var r repResult
				r.layers = map[string]float64{}
				engineLayers(&r, es, traced, time.Second, timerCost{})
				if len(r.problems) > 0 {
					t.Errorf("%s workers=%d: %v", name, workers, r.problems)
				}
				if es.step.calls == 0 || es.transmitters.calls+es.repeat.calls == 0 {
					t.Errorf("%s workers=%d: decorators recorded no slots", name, workers)
				}
			}
		}
	}
}

func TestBackendDecoratorRecords(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spans := newSpanLog(time.Now())
	b := wrapBackend(store, spans, 0)
	const id = "4a5b6c7d8e9f00112233445566778899aabbccddeeff00112233445566778899"
	var rec struct{ X int }
	if ok, err := b.Get(id, &rec); ok || err != nil {
		t.Fatalf("Get on empty store = %v, %v", ok, err)
	}
	if ok, err := b.Claim(id, "me", time.Minute); !ok || err != nil {
		t.Fatalf("Claim = %v, %v", ok, err)
	}
	if err := b.Put(id, struct{ X int }{1}); err != nil {
		t.Fatal(err)
	}
	if ok, err := b.Get(id, &rec); !ok || err != nil || rec.X != 1 {
		t.Fatalf("Get after Put = %v, %v, %+v", ok, err, rec)
	}
	if _, err := b.List(); err != nil {
		t.Fatal(err)
	}
	s := b.stats()
	if s.get.calls != 2 || s.getHits != 1 || s.claim.calls != 1 || s.claimGrants != 1 || s.put.calls != 1 || s.list.calls != 1 || s.exec.calls != 1 {
		t.Fatalf("recorded %+v", s)
	}
	self := spans.selfSeconds()
	for _, name := range []string{"cache.get", "cache.claim", "cache.put", "cache.list", "sweep.exec"} {
		if _, ok := self[name]; !ok {
			t.Errorf("no %s span", name)
		}
	}
}

func TestTransportDecoratorStampsBegins(t *testing.T) {
	a, b := emu.NewPipe()
	defer a.Close()
	ta := &tTransport{in: a, timed: true, stamp: true}
	for _, f := range []*emu.Frame{{Type: emu.FrameBegin, Slot: 0}, {Type: emu.FrameFeedback}, {Type: emu.FrameBegin, Slot: 1}} {
		if err := ta.Send(f); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(ta.begins) != 2 || ta.send.calls != 3 {
		t.Fatalf("stamped %d Begin frames over %d sends, want 2 over 3", len(ta.begins), ta.send.calls)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4}, [3]float64{1, 4, 10}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestEndToEndWithoutOperations checks that a run whose every operation
// failed still gets a result line that encodes, with every metric.
func TestEndToEndWithoutOperations(t *testing.T) {
	m := endToEnd(nil, nil, []float64{2e-6}, nil)
	if len(m) != len(endToEndMetrics) {
		t.Fatalf("%d metrics, want %d", len(m), len(endToEndMetrics))
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if m["setup_s"].Value != 2e-6 {
		t.Errorf("setup_s = %g, want 2e-6", m["setup_s"].Value)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end metrics differ:\nBENCHMARK.json %v\nprogram        %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", bj.PerLayer, perLayerMetrics)
	}
}
