package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/httpstore"
)

// stealOptions are worker options tuned for tests: fast polling so a
// worker waiting on a neighbor's lease notices quickly.
func stealOptions(owner string, store cache.Backend) Options {
	return Options{Cache: store, Owner: owner, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond}
}

// unshardedJSON is the reference artifact every scheduling policy must
// reproduce byte-for-byte.
func unshardedJSON(t *testing.T, spec Spec) []byte {
	t.Helper()
	grid, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func assembledJSON(t *testing.T, spec Spec, backend cache.Backend) []byte {
	t.Helper()
	grid, err := Assemble(context.Background(), spec, backend)
	if err != nil {
		t.Fatal(err)
	}
	data, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkStealingDrainByteIdentical is the tentpole contract (and the
// race-detector test for N workers over one shared store): concurrent
// goroutine workers drain one grid through advisory claims, and the
// assembled Grid is byte-identical to the unsharded sweep.Run output.
func TestWorkStealingDrainByteIdentical(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	results := make([]*WorkerResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := stealOptions([]string{"w1", "w2", "w3", "w4"}[w], store)
			results[w], errs[w] = RunWorker(context.Background(), spec, opts)
		}(w)
	}
	wg.Wait()
	executed, loaded := 0, 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		executed += results[w].Executed
		loaded += results[w].Loaded
	}
	total := spec.Cells()
	if executed != total {
		t.Fatalf("workers executed %d cells in total, want exactly %d (each cell computed once)", executed, total)
	}
	for w, r := range results {
		if r.Executed+r.Loaded != total {
			t.Fatalf("worker %d observed %d cells, want %d", w, r.Executed+r.Loaded, total)
		}
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("work-stealing grid differs from the unsharded run")
	}
}

// TestWorkerPreemption is the lease-expiry contract: cells claimed by a
// worker that died mid-lease become stealable once the lease expires,
// and the re-claimed cells produce the same bytes as everyone else's.
func TestWorkerPreemption(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A "worker" claims three cells and dies without completing them —
	// exactly the state RunWorker leaves if killed between Claim and Put.
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	for i := 0; i < 3; i++ {
		id := cellID(cells[i], &spec, seeds[i*spec.Trials:(i+1)*spec.Trials])
		if ok, err := store.Claim(id, "dead-worker", 30*time.Millisecond); err != nil || !ok {
			t.Fatalf("dead worker's claim %d = (%v, %v)", i, ok, err)
		}
	}
	// A surviving worker must stall on those cells until the leases
	// expire, then re-claim and finish the grid alone.
	res, err := RunWorker(context.Background(), spec, stealOptions("survivor", store))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != spec.Cells() {
		t.Fatalf("survivor executed %d cells, want %d (including the 3 re-claimed)", res.Executed, spec.Cells())
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid after preemption differs from the unsharded run")
	}
}

// TestRunWorkerRewritesDamagedRecords plants a garbage record and a
// record of another cell under two cells' identities.  Both read as
// misses, so the worker must claim, execute and rewrite them instead of
// waiting forever for a lease it can never get.
func TestRunWorkerRewritesDamagedRecords(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	id := func(i int) string { return cellID(cells[i], &spec, seeds[i*spec.Trials:(i+1)*spec.Trials]) }
	if err := os.WriteFile(store.Path(id(0)), []byte("\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign, err := json.Marshal(&CellRecord{SchemaVersion: SchemaVersion, ID: id(2), Key: cells[2].Key(), Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(id(1)), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := RunWorker(ctx, spec, stealOptions("repairer", store))
	if err != nil {
		t.Fatalf("worker over damaged records: %v", err)
	}
	if res.Executed != spec.Cells() {
		t.Fatalf("worker executed %d cells, want %d", res.Executed, spec.Cells())
	}
	for i := 0; i < 2; i++ {
		if _, ok, _, err := loadCell(store, id(i), cells[i].Key()); err != nil || !ok {
			t.Fatalf("damaged record %d not rewritten (ok=%v, err=%v)", i, ok, err)
		}
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid after repairing damaged records differs from the unsharded run")
	}
}

// TestRunWorkerRewritesStaleRecords plants records that name their own
// identity — so every backend refuses to lease them — but that the
// spec cannot use: a stale schema version, a wrong scenario key, and a
// body that is no cell record.  A worker over the filesystem store and
// one over HTTP must each finish, rewrite every planted record, and
// leave a store that assembles to Run's grid.
func TestRunWorkerRewritesStaleRecords(t *testing.T) {
	spec := smallSpec()
	spec.Kappas = []int{8}
	want := unshardedJSON(t, spec)
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	id := func(i int) string { return cellID(cells[i], &spec, seeds[i*spec.Trials:(i+1)*spec.Trials]) }
	planted := map[int]interface{}{
		0: &CellRecord{SchemaVersion: "crn-sweep/0", ID: id(0), Key: cells[0].Key(), Index: 0},
		1: &CellRecord{SchemaVersion: SchemaVersion, ID: id(1), Key: "not/the/key", Index: 1},
		2: map[string]string{"id": id(2)},
	}
	for _, remote := range []bool{false, true} {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range planted {
			if err := store.Put(id(i), rec); err != nil {
				t.Fatal(err)
			}
		}
		var backend cache.Backend = store
		if remote {
			srv := httptest.NewServer(httpstore.NewServer(store))
			defer srv.Close()
			if backend, err = httpstore.NewClient(srv.URL); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = RunWorker(ctx, spec, stealOptions("repairer", backend))
		cancel()
		if err != nil {
			t.Fatalf("remote=%v: worker over stale records: %v", remote, err)
		}
		for i := range planted {
			var rec CellRecord
			if ok, err := store.Get(id(i), &rec); err != nil || !ok ||
				rec.SchemaVersion != SchemaVersion || rec.Key != cells[i].Key() || rec.Cell.Trials != spec.Trials {
				t.Fatalf("remote=%v: planted record %d not rewritten: %+v (ok=%v, err=%v)", remote, i, rec, ok, err)
			}
		}
		if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
			t.Fatalf("remote=%v: grid after rewriting stale records differs from Run", remote)
		}
	}
}

// TestWorkerKilledAndRestarted kills a worker mid-run (context
// cancellation after its second cell) and restarts it: the restarted
// worker finds its predecessor's records, renews its own still-live
// leases, completes the rest, and the assembled grid is byte-identical.
func TestWorkerKilledAndRestarted(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := stealOptions("w1", store)
	opts.OnCell = func(done, total int, cell *CellSummary, cached bool) {
		if done == 2 {
			cancel() // the "kill": the worker dies before its next claim
		}
	}
	res, err := RunWorker(ctx, spec, opts)
	if err == nil {
		t.Fatal("killed worker reported success")
	}
	if res.Executed < 2 || res.Executed >= spec.Cells() {
		t.Fatalf("killed worker executed %d cells, want a strict partial run", res.Executed)
	}
	// Restart under the same owner: earlier cells load from the store,
	// the remainder execute, nothing is recomputed.
	res2, err := RunWorker(context.Background(), spec, stealOptions("w1", store))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Loaded != res.Executed || res2.Executed != spec.Cells()-res.Executed {
		t.Fatalf("restart loaded=%d executed=%d after a %d-cell first life",
			res2.Loaded, res2.Executed, res.Executed)
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid after kill+restart differs from the unsharded run")
	}
}

// TestDuplicateCompletionByteIdentical pins the property the whole
// advisory-lease design leans on: two workers completing the same cell
// write byte-identical records (same content identity ⇒ same bytes), so
// last-write-wins cannot corrupt a grid.
func TestDuplicateCompletionByteIdentical(t *testing.T) {
	spec := smallSpec()
	var stores [2]*cache.Store
	for attempt := range stores {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWorker(context.Background(), spec, stealOptions("w", store)); err != nil {
			t.Fatal(err)
		}
		stores[attempt] = store
	}
	ids, err := stores[0].List()
	if err != nil || len(ids) != spec.Cells() {
		t.Fatalf("first store holds %d records (%v), want %d", len(ids), err, spec.Cells())
	}
	for _, id := range ids {
		first, err := os.ReadFile(stores[0].Path(id))
		if err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(stores[1].Path(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("two completions of cell %s wrote different bytes", id)
		}
	}
}

// TestWorkStealingOverHTTPBackend drives two concurrent workers through
// the HTTP client+server pair — the multi-machine path — and assembles
// from the underlying filesystem store, proving the two views are one
// namespace.
func TestWorkStealingOverHTTPBackend(t *testing.T) {
	spec := smallSpec()
	spec.Kappas = []int{8} // halve the grid: HTTP round-trips per cell add up
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpstore.NewServer(store))
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := httpstore.NewClient(srv.URL)
			if err != nil {
				errs[w] = err
				return
			}
			_, errs[w] = RunWorker(context.Background(), spec, stealOptions([]string{"m1", "m2"}[w], client))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("HTTP-backed work-stealing grid differs from the unsharded run")
	}
}

// countingBackend wraps a Backend to observe the lease traffic a
// worker generates: successful claims per (owner, id) and record writes
// per id, plus a one-shot signal when a chosen owner first claims a
// chosen cell.
type countingBackend struct {
	cache.Backend
	mu       sync.Mutex
	claims   map[string]int // owner + "\x00" + id → successful claims
	puts     map[string]int // id → Put calls
	watchID  string
	watchOwn string
	claimed  chan struct{}
	once     sync.Once
}

func newCountingBackend(inner cache.Backend, watchOwner, watchID string) *countingBackend {
	return &countingBackend{
		Backend:  inner,
		claims:   make(map[string]int),
		puts:     make(map[string]int),
		watchID:  watchID,
		watchOwn: watchOwner,
		claimed:  make(chan struct{}),
	}
}

func (c *countingBackend) Claim(id, owner string, ttl time.Duration) (bool, error) {
	ok, err := c.Backend.Claim(id, owner, ttl)
	if ok {
		c.mu.Lock()
		c.claims[owner+"\x00"+id]++
		c.mu.Unlock()
		if owner == c.watchOwn && id == c.watchID {
			c.once.Do(func() { close(c.claimed) })
		}
	}
	return ok, err
}

func (c *countingBackend) Put(id string, v interface{}) error {
	c.mu.Lock()
	c.puts[id]++
	c.mu.Unlock()
	return c.Backend.Put(id, v)
}

func (c *countingBackend) claimCount(owner, id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.claims[owner+"\x00"+id]
}

func (c *countingBackend) putCount(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts[id]
}

// TestLeaseRenewalKeepsSlowCellOwned is the renewal contract: a cell
// whose execution outlives the lease TTL must not look dead.  The slow
// worker's renewal goroutine re-claims at TTL/2 while an eager
// competitor races through the rest of the grid; the eager worker must
// never win the slow cell, and exactly one record lands for it.
func TestLeaseRenewalKeepsSlowCellOwned(t *testing.T) {
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	slowID := cellID(cells[0], &spec, seeds[:spec.Trials])
	backend := newCountingBackend(store, "slow", slowID)

	// Cell 0 takes ~3× the lease TTL under the slow owner; everything
	// else runs at full speed.
	const ttl = 250 * time.Millisecond
	execDelay = func(owner string, cell int) {
		if owner == "slow" && cell == 0 {
			time.Sleep(3 * ttl)
		}
	}
	defer func() { execDelay = nil }()

	slowDone := make(chan error, 1)
	go func() {
		opts := stealOptions("slow", backend)
		opts.LeaseTTL = ttl
		opts.Poll = 20 * time.Millisecond
		_, err := RunWorker(context.Background(), spec, opts)
		slowDone <- err
	}()

	// Only start the eager worker once the slow one holds cell 0, so the
	// race over that cell is guaranteed to happen.
	select {
	case <-backend.claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("slow worker never claimed cell 0")
	}
	opts := stealOptions("eager", backend)
	opts.LeaseTTL = ttl
	opts.Poll = 20 * time.Millisecond
	eager, err := RunWorker(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}

	if n := backend.claimCount("slow", slowID); n < 2 {
		t.Errorf("slow owner claimed its cell %d times, want ≥ 2 (initial + TTL/2 renewals)", n)
	}
	if n := backend.claimCount("eager", slowID); n != 0 {
		t.Errorf("eager worker stole the renewed lease %d times, want 0", n)
	}
	if n := backend.putCount(slowID); n != 1 {
		t.Errorf("slow cell was written %d times, want exactly 1", n)
	}
	if eager.Executed == 0 || eager.Executed >= spec.Cells() {
		t.Errorf("eager worker executed %d cells, want a strict nonzero share", eager.Executed)
	}
	want := unshardedJSON(t, spec)
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid after a renewed slow cell differs from the unsharded run")
	}
}

func TestRunWorkerRequiresBackend(t *testing.T) {
	if _, err := RunWorker(context.Background(), smallSpec(), Options{}); err == nil {
		t.Fatal("RunWorker without a backend accepted")
	}
}

func TestAssembleReportsMissingCells(t *testing.T) {
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(context.Background(), spec, store); err == nil {
		t.Fatal("assemble of an empty backend succeeded")
	}
	// Half-fill via a shard-filtered worker, then assemble: still
	// incomplete.
	if _, err := RunWorker(context.Background(), spec, Options{Cache: store, Shard: Shard{Index: 1, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(context.Background(), spec, store); err == nil {
		t.Fatal("assemble of a half-drained backend succeeded")
	}
	// Completing the other half makes assembly whole — shard-filtered
	// workers share one record namespace.
	if _, err := RunWorker(context.Background(), spec, Options{Cache: store, Shard: Shard{Index: 2, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(unshardedJSON(t, spec), got) {
		t.Fatal("shard-filled assemble differs from the unsharded run")
	}
}

// TestRunWorkerPipelinesCells is the pipelining contract: with two lanes
// and one trial per cell, the worker claims cell 1 while cell 0's trial
// is still running, instead of finishing cell 0 first.  Cell 0's trial
// blocks until cell 1 is claimed; a worker that runs one cell at a time
// never claims it, and the trial's timeout fails the test.
func TestRunWorkerPipelinesCells(t *testing.T) {
	spec := smallSpec()
	spec.Trials = 1
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	backend := newCountingBackend(store, "w", cellID(cells[1], &spec, seeds[1:2]))

	timedOut := make(chan struct{})
	execDelay = func(owner string, cell int) {
		if cell != 0 {
			return
		}
		select {
		case <-backend.claimed:
		case <-time.After(5 * time.Second):
			close(timedOut)
		}
	}
	defer func() { execDelay = nil }()

	opts := stealOptions("w", backend)
	opts.Parallelism = 2
	res, err := RunWorker(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-timedOut:
		t.Fatal("cell 1 was not claimed while cell 0's trial ran: cells do not overlap")
	default:
	}
	if res.Executed != spec.Cells() {
		t.Fatalf("worker executed %d cells, want %d", res.Executed, spec.Cells())
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(unshardedJSON(t, spec), got) {
		t.Fatal("pipelined grid differs from the unsharded run")
	}
}

// TestRunWorkerRejectsBadLeaseTiming: a lease TTL too short to renew at
// TTL/2, or a negative TTL or poll interval, is an error up front rather
// than a panic or a busy loop mid-run.
func TestRunWorkerRejectsBadLeaseTiming(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		ttl, poll time.Duration
	}{
		{"1ns ttl", time.Nanosecond, 0},
		{"sub-minimum ttl", minLeaseTTL - 1, 0},
		{"negative ttl", -time.Second, 0},
		{"negative poll", 0, -time.Millisecond},
	} {
		opts := Options{Cache: store, LeaseTTL: c.ttl, Poll: c.poll}
		if _, err := RunWorker(context.Background(), smallSpec(), opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if n, err := store.Len(); err != nil || n != 0 {
		t.Fatalf("rejected workers wrote %d records (%v)", n, err)
	}
}
