package sim

import (
	"testing"

	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/rng"
)

// TestInflightAgainstMap drives the in-flight table with interleaved
// batch, Bernoulli and burst arrivals and random delivery orders,
// checking it against a map from packet ID to inject slot: every
// delivery returns the exact inject slot, the peak counts the live
// packets, and after every slot the run list is bounded by the live
// packets.
func TestInflightAgainstMap(t *testing.T) {
	cases := []struct {
		name    string
		arr     arrival.Process
		deliver float64 // per-slot delivery probability of each live packet
		order   string  // "random", "oldest" or "newest" first
	}{
		{"batch", &arrival.Batch{At: 3, N: 5000}, 0.01, "random"},
		{"bernoulli", &arrival.Bernoulli{Rate: 0.6}, 0.2, "random"},
		{"burst", &arrival.WindowBurst{Window: 50, PerWindow: 40}, 0.05, "oldest"},
		{"interleaved", &arrival.Merge{
			A: &arrival.Merge{A: &arrival.Batch{At: 100, N: 3000}, B: &arrival.Bernoulli{Rate: 0.3}},
			B: &arrival.WindowBurst{Window: 97, PerWindow: 25},
		}, 0.03, "random"},
		{"interleaved-lifo", &arrival.Merge{
			A: &arrival.Batch{At: 0, N: 2000},
			B: &arrival.Merge{A: &arrival.Bernoulli{Rate: 0.5}, B: &arrival.WindowBurst{Window: 31, PerWindow: 9}},
		}, 0.04, "newest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, pick := rng.New(1), rng.New(2)
			f := newInflight()
			oracle := map[channel.PacketID]int64{}
			var live []channel.PacketID
			var nextID channel.PacketID
			peak := 0
			for now := int64(0); now < 3000; now++ {
				if n := tc.arr.Injections(now, r); n > 0 {
					f.add(nextID, n, now)
					for i := 0; i < n; i++ {
						oracle[nextID] = now
						live = append(live, nextID)
						nextID++
					}
					peak = max(peak, len(live))
				}
				switch tc.order {
				case "random":
					pick.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				case "newest":
					for i, j := 0, len(live)-1; i < j; i, j = i+1, j-1 {
						live[i], live[j] = live[j], live[i]
					}
				}
				kept := live[:0]
				for _, id := range live {
					if !pick.Bernoulli(tc.deliver) {
						kept = append(kept, id)
						continue
					}
					if got, want := f.take(id), oracle[id]; got != want {
						t.Fatalf("slot %d: packet %d inject slot %d, want %d", now, id, got, want)
					}
					delete(oracle, id)
				}
				live = kept
				if tc.order == "newest" {
					for i, j := 0, len(live)-1; i < j; i, j = i+1, j-1 {
						live[i], live[j] = live[j], live[i]
					}
				}
				checkInflightRuns(t, f, oracle)
			}
			if f.peak != peak {
				t.Fatalf("peak %d, want %d", f.peak, peak)
			}
		})
	}
}

// checkInflightRuns checks the run list against the oracle: runs are
// in ID and slot order, their live counts add up to the live packets,
// and fully delivered runs never outnumber the rest, so the list is
// bounded by the backlog.
func checkInflightRuns(t *testing.T, f *inflight, oracle map[channel.PacketID]int64) {
	t.Helper()
	if f.live.Len() != len(oracle) {
		t.Fatalf("live set %d, oracle %d", f.live.Len(), len(oracle))
	}
	sum, dead := 0, 0
	for i, run := range f.runs {
		if i > 0 && (run.first <= f.runs[i-1].first || run.slot < f.runs[i-1].slot) {
			t.Fatalf("runs out of order: %+v after %+v", run, f.runs[i-1])
		}
		sum += run.live
		if run.live == 0 {
			dead++
		}
	}
	if sum != len(oracle) {
		t.Fatalf("runs count %d live packets, oracle %d", sum, len(oracle))
	}
	if dead != f.dead || 2*dead > len(f.runs) {
		t.Fatalf("%d of %d runs are fully delivered (counted %d)", dead, len(f.runs), f.dead)
	}
}

// TestInflightRejectsBadDelivery: a duplicate delivery, a delivery of
// an ID never issued, and one from a fully delivered run all panic; a
// fully delivered list keeps no run.
func TestInflightRejectsBadDelivery(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	f := newInflight()
	f.add(0, 10, 4)
	f.add(10, 5, 9)
	if got := f.take(3); got != 4 {
		t.Fatalf("take(3) = %d, want 4", got)
	}
	mustPanic("duplicate delivery", func() { f.take(3) })
	mustPanic("unknown delivery", func() { f.take(15) })
	mustPanic("negative ID", func() { f.take(-1) })
	for id := channel.PacketID(0); id < 10; id++ {
		if id != 3 {
			f.take(id)
		}
	}
	mustPanic("delivery of a delivered run", func() { f.take(5) })
	f.add(15, 1, 12)
	for id, want := range map[channel.PacketID]int64{12: 9, 15: 12, 10: 9, 11: 9, 13: 9, 14: 9} {
		if got := f.take(id); got != want {
			t.Fatalf("take(%d) = %d, want %d", id, got, want)
		}
	}
	if len(f.runs) != 0 || f.live.Len() != 0 {
		t.Fatalf("runs %+v and %d live packets kept after every delivery", f.runs, f.live.Len())
	}
	if f.peak != 15 {
		t.Fatalf("peak %d, want 15", f.peak)
	}
}
