package arena

import (
	"runtime"
	"testing"

	"repro/internal/rng"
)

func TestBasicOps(t *testing.T) {
	var x Set
	if x.Len() != 0 {
		t.Fatalf("empty Len = %d", x.Len())
	}
	if x.Has(0) {
		t.Fatal("Has on empty set succeeded")
	}
	if !x.Put(5) {
		t.Fatal("first Put(5) reported present")
	}
	if x.Put(5) {
		t.Fatal("second Put(5) reported absent")
	}
	x.Put(-3)
	x.Put(1 << 40)
	if x.Len() != 3 {
		t.Fatalf("Len = %d, want 3", x.Len())
	}
	for _, k := range []int64{5, -3, 1 << 40} {
		if !x.Has(k) {
			t.Fatalf("Has(%d) = false", k)
		}
	}
	if x.Has(6) || x.Has(-4) {
		t.Fatal("Has reports a key never put")
	}
	if !x.Delete(5) {
		t.Fatal("Delete(5) missed")
	}
	if x.Delete(5) {
		t.Fatal("double Delete succeeded")
	}
	if x.Has(5) {
		t.Fatal("Has(5) after delete")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	x.Reset()
	if x.Len() != 0 || x.Pages() != 0 {
		t.Fatalf("after Reset: Len=%d Pages=%d", x.Len(), x.Pages())
	}
	if x.Has(-3) {
		t.Fatal("Has after Reset succeeded")
	}
}

// TestAgainstMap drives the set and a plain map with the same random
// operation stream, including negative and widely-spaced keys, and
// requires identical membership throughout.
func TestAgainstMap(t *testing.T) {
	r := rng.New(7)
	var x Set
	ref := map[int64]bool{}
	keys := make([]int64, 0, 256)
	randKey := func() int64 {
		switch r.Intn(4) {
		case 0:
			return int64(r.Intn(40)) - 8 // dense, straddling zero
		case 1:
			return int64(r.Intn(4)) * 100_000 // page-sparse
		case 2:
			return int64(r.Intn(1 << 20))
		default:
			if len(keys) > 0 {
				return keys[r.Intn(len(keys))] // revisit an old key
			}
			return 0
		}
	}
	for i := 0; i < 200_000; i++ {
		k := randKey()
		switch r.Intn(3) {
		case 0:
			if got := x.Put(k); got == ref[k] {
				t.Fatalf("op %d: Put(%d) = %v with the key present=%v", i, k, got, ref[k])
			}
			ref[k] = true
			keys = append(keys, k)
		case 1:
			if got := x.Delete(k); got != ref[k] {
				t.Fatalf("op %d: Delete(%d) = %v want %v", i, k, got, ref[k])
			}
			delete(ref, k)
		case 2:
			if got := x.Has(k); got != ref[k] {
				t.Fatalf("op %d: Has(%d) = %v want %v", i, k, got, ref[k])
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, map has %d", i, x.Len(), len(ref))
		}
	}
	// Full-content check via Range.
	seen := 0
	x.Range(func(k int64) bool {
		if !ref[k] {
			t.Fatalf("Range visited %d, which the map lacks", k)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, map has %d", seen, len(ref))
	}
}

// TestSlidingWindowMemory models the engine's packet lifecycle: IDs
// are assigned sequentially and freed shortly after.  The mapped page
// count must track the live span, not the total number of keys ever
// inserted — this is the backlog-bounded memory contract.
func TestSlidingWindowMemory(t *testing.T) {
	var x Set
	const window = 3 * PageSize
	for k := int64(0); k < 100*PageSize; k++ {
		x.Put(k)
		if k >= window {
			if !x.Delete(k - window) {
				t.Fatalf("Delete(%d) missed", k-window)
			}
		}
		if p := x.Pages(); p > window/PageSize+2 {
			t.Fatalf("at key %d: %d pages mapped for a %d-entry window", k, p, window)
		}
	}
	if x.Len() != window {
		t.Fatalf("Len = %d, want %d", x.Len(), window)
	}
}

// TestReanchorAgainstMap drifts a band of live keys up and down the key
// space, so the window re-anchors both ways — in place and by growing —
// and checks every entry against a map after each step.
func TestReanchorAgainstMap(t *testing.T) {
	r := rng.New(11)
	var x Set
	ref := map[int64]bool{}
	center := int64(0)
	for step := 0; step < 3000; step++ {
		// A slow random walk with occasional long jumps.
		center += int64(r.Intn(4*PageSize+1)) - 2*PageSize
		if r.Intn(50) == 0 {
			center += int64(r.Intn(200*PageSize)) - 100*PageSize
		}
		width := int64(1 + r.Intn(6*PageSize))
		for k := range ref {
			if k < center-width || k > center+width {
				if !x.Delete(k) {
					t.Fatalf("step %d: Delete(%d) missed", step, k)
				}
				delete(ref, k)
			}
		}
		for i := 0; i < 20; i++ {
			k := center - width + int64(r.Intn(int(2*width+1)))
			x.Put(k)
			ref[k] = true
		}
		if x.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, map has %d", step, x.Len(), len(ref))
		}
		for k := range ref {
			if !x.Has(k) {
				t.Fatalf("step %d: Has(%d) = false", step, k)
			}
		}
		if p := x.Pages(); p > len(ref) {
			t.Fatalf("step %d: %d pages mapped for %d keys", step, p, len(ref))
		}
	}
}

// TestSlidingWindowZeroAllocs pins the re-anchor path: a window of 5000
// live sequential keys sliding forward re-anchors the page table once per
// page it advances, and after warm-up must reuse the table's backing
// array (and the free list's pages) instead of allocating.
func TestSlidingWindowZeroAllocs(t *testing.T) {
	const (
		live   = 5000
		warmup = 100_000
		keys   = 1_000_000
	)
	var x Set
	slide := func(from, to int64) {
		for k := from; k < to; k++ {
			x.Put(k)
			if k >= live {
				x.Delete(k - live)
			}
		}
	}
	slide(0, warmup)
	// MemStats counts the runtime's own mallocs too: a GC cycle or the
	// scavenger may allocate a few bytes (worker threads, timer heaps) in
	// any window.  The set's allocations are deterministic, in every
	// window or in none, so a window that shows some is retried.
	var mallocs, bytes uint64
	runtime.GC()
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		from := warmup + int64(try)*keys
		slide(from, from+keys)
		runtime.ReadMemStats(&after)
		if x.Len() != live {
			t.Fatalf("Len = %d, want %d", x.Len(), live)
		}
		mallocs, bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if mallocs == 0 && bytes == 0 {
			return
		}
	}
	t.Fatalf("sliding %d keys allocated %d times, %d bytes; want 0", keys, mallocs, bytes)
}

// TestOverflowFarKeys drives keys too far apart for any dense window —
// the overflow-directory path — interleaved with dense keys, checking
// contents, page accounting, deletion, ordered iteration, and Reset.
func TestOverflowFarKeys(t *testing.T) {
	var x Set
	keys := []int64{0, 1, PageSize, -PageSize,
		1 << 30, 1 << 40, 1<<62 - 1, -(1 << 40), -(1 << 30)}
	for _, k := range keys {
		x.Put(k)
	}
	if x.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(keys))
	}
	for _, k := range keys {
		if !x.Has(k) {
			t.Fatalf("Has(%d) = false", k)
		}
		if x.Has(k + 2) {
			t.Fatalf("Has(%d) = true for a key never put", k+2)
		}
	}
	// Every key is on its own page except 0 and 1.
	if p := x.Pages(); p != len(keys)-1 {
		t.Fatalf("Pages = %d, want %d", p, len(keys)-1)
	}
	prev := int64(-1 << 62)
	seen := 0
	x.Range(func(k int64) bool {
		if k <= prev {
			t.Fatalf("Range out of order: %d after %d", k, prev)
		}
		prev = k
		seen++
		return true
	})
	if seen != len(keys) {
		t.Fatalf("Range visited %d, want %d", seen, len(keys))
	}
	for _, k := range keys {
		if !x.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if x.Len() != 0 || x.Pages() != 0 {
		t.Fatalf("after deletes: Len=%d Pages=%d", x.Len(), x.Pages())
	}
	// Re-anchor after full vacation: a far key restarts the window.
	x.Put(1 << 50)
	if !x.Has(1 << 50) {
		t.Fatal("Has after re-anchor = false")
	}
	x.Reset()
	if x.Len() != 0 || x.Pages() != 0 {
		t.Fatalf("after Reset: Len=%d Pages=%d", x.Len(), x.Pages())
	}
}

// TestRangeOrder checks ascending-key iteration across pages.
func TestRangeOrder(t *testing.T) {
	var x Set
	for _, k := range []int64{900, -5, 0, 511, 512, 513, 1 << 30} {
		x.Put(k)
	}
	prev := int64(-1 << 62)
	x.Range(func(k int64) bool {
		if k <= prev {
			t.Fatalf("Range out of order: %d after %d", k, prev)
		}
		prev = k
		return true
	})
}
