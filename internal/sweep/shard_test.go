package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cache"
)

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("2/4")
	if err != nil || sh.Index != 2 || sh.Count != 4 {
		t.Fatalf("ParseShard(2/4) = %v, %v", sh, err)
	}
	if sh.String() != "2/4" {
		t.Fatalf("String() = %q", sh.String())
	}
	for _, bad := range []string{"", "garbage", "0/4", "5/4", "-1/4", "1/0", "1/-2", "1", "1/", "/4", "a/b", "1/4/2"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard accepted %q", bad)
		}
	}
}

func TestShardIndicesPartition(t *testing.T) {
	// Shards 1..N partition the grid: disjoint, union exact, balanced to
	// within one cell.
	for _, total := range []int{0, 1, 3, 4, 7, 132} {
		for _, n := range []int{1, 2, 4, 5} {
			seen := make([]bool, total)
			min, max := total, 0
			for k := 1; k <= n; k++ {
				idx := Shard{Index: k, Count: n}.Indices(total)
				if len(idx) < min {
					min = len(idx)
				}
				if len(idx) > max {
					max = len(idx)
				}
				for _, i := range idx {
					if i < 0 || i >= total || seen[i] {
						t.Fatalf("total=%d n=%d: index %d out of range or duplicated", total, n, i)
					}
					seen[i] = true
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("total=%d n=%d: cell %d unassigned", total, n, i)
				}
			}
			if total >= n && max-min > 1 {
				t.Fatalf("total=%d n=%d: unbalanced shards (sizes %d..%d)", total, n, min, max)
			}
		}
	}
	all := Shard{}.Indices(5)
	if len(all) != 5 || all[0] != 0 || all[4] != 4 {
		t.Fatalf("zero shard indices = %v", all)
	}
}

func TestSpecHash(t *testing.T) {
	s := smallSpec()
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Hash is computed on the normalized spec, so pre- and
	// post-Validate specs agree.
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	h2, err := s.Hash()
	if err != nil || h1 != h2 {
		t.Fatalf("normalization changed the hash: %s vs %s (%v)", h1, h2, err)
	}
	s.Seed++
	h3, err := s.Hash()
	if err != nil || h3 == h1 {
		t.Fatalf("seed change did not change the hash (%v)", err)
	}
}

// shardStores runs the spec as n shard-filtered workers at once, each
// writing to its own store, as n machines would.
func shardStores(t *testing.T, spec Spec, n, parallelism int) []*cache.Store {
	t.Helper()
	stores := make([]*cache.Store, n)
	results := make([]*WorkerResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 1; k <= n; k++ {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[k-1] = store
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			opts := Options{Cache: store, Shard: Shard{Index: k, Count: n}, Parallelism: parallelism}
			results[k-1], errs[k-1] = RunWorker(context.Background(), spec, opts)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/%d: %v", k+1, n, err)
		}
		want := len(Shard{Index: k + 1, Count: n}.Indices(spec.Cells()))
		if r := results[k]; r.Total != want || r.Executed != want || r.Loaded != 0 {
			t.Fatalf("shard %d/%d: %+v, want %d cells executed", k+1, n, r, want)
		}
	}
	return stores
}

// unionStore copies the record files of several stores into one fresh
// directory — what a CI gate does with the shard jobs' uploads.
func unionStore(t *testing.T, stores ...*cache.Store) *cache.Store {
	t.Helper()
	dir := t.TempDir()
	for _, s := range stores {
		records, err := filepath.Glob(filepath.Join(s.Dir(), "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range records {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestShardedMergeByteIdentical(t *testing.T) {
	// The static-split contract: 4 shard-filtered workers write to
	// separate stores, their records go into one directory, and Assemble
	// over it renders byte-identically to Run, at parallelism 1 and N
	// alike.  The spec mixes models and adversaries so the skip rules are
	// live during partitioning.
	spec := adversarialSpec()
	spec.Models = []string{"coded", "classical:ternary"}
	grid, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := []byte(grid.CSV())
	for _, par := range []int{1, 8} {
		stores := shardStores(t, spec, 4, par)
		// Reverse the copy order: the union does not depend on it.
		merged := unionStore(t, stores[3], stores[2], stores[1], stores[0])
		got, err := Assemble(context.Background(), spec, merged)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("parallelism %d: assembled JSON differs from Run", par)
		}
		if !bytes.Equal(wantCSV, []byte(got.CSV())) {
			t.Fatalf("parallelism %d: assembled CSV differs from Run", par)
		}
	}
}

func TestRunShardMatchesUnshardedCells(t *testing.T) {
	// A shard-filtered worker computes exactly its round-robin slice, and
	// each of its cells equals the unsharded run's.
	spec := smallSpec()
	grid, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorker(context.Background(), spec, Options{Cache: store, Shard: Shard{Index: 2, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Shard{Index: 2, Count: 3}.Indices(len(grid.Cells))); res.Total != want || res.Executed != want {
		t.Fatalf("shard 2/3 worker: %+v, want %d cells executed", res, want)
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != res.Executed {
		t.Fatalf("store holds %d records after a %d-cell shard", len(ids), res.Executed)
	}
	for _, id := range ids {
		var rec CellRecord
		if ok, err := store.Get(id, &rec); err != nil || !ok {
			t.Fatalf("reading record %s: ok=%v err=%v", id, ok, err)
		}
		if rec.Index%3 != 1 {
			t.Fatalf("shard 2/3 wrote cell %d", rec.Index)
		}
		if want := grid.Cells[rec.Index]; rec.Cell != want {
			t.Fatalf("cell %d differs between sharded and unsharded run:\n%+v\n%+v", rec.Index, rec.Cell, want)
		}
	}
}

func TestRunRejectsShard(t *testing.T) {
	if _, err := Run(context.Background(), smallSpec(), Options{Shard: Shard{Index: 1, Count: 2}}); err == nil {
		t.Fatal("Run with a shard filter accepted")
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{Cache: store, Shard: Shard{Index: 3, Count: 2}}
	if _, err := RunWorker(context.Background(), smallSpec(), bad); err == nil {
		t.Fatal("RunWorker with a malformed shard accepted")
	}
}

func TestMergeRejects(t *testing.T) {
	// Assembling the union of shard stores refuses anything that is not
	// exactly this spec's grid: a missing shard, a shard run under
	// another spec, a stale schema version, or a record filed under
	// another cell's identity.
	spec := smallSpec()
	s := shardStores(t, spec, 2, 0)
	assemble := func(stores ...*cache.Store) error {
		_, err := Assemble(context.Background(), spec, unionStore(t, stores...))
		return err
	}
	if err := assemble(s[0]); err == nil {
		t.Error("assemble with a missing shard accepted")
	}

	// Mismatched specs: same shape, different seed.
	other := spec
	other.Seed = 99
	if err := assemble(s[0], shardStores(t, other, 2, 0)[1]); err == nil {
		t.Error("assemble across different specs accepted")
	}

	merged := unionStore(t, s...)
	ids, err := merged.List()
	if err != nil {
		t.Fatal(err)
	}
	var rec0, rec1 CellRecord
	if ok, err := merged.Get(ids[0], &rec0); err != nil || !ok {
		t.Fatalf("reading record: ok=%v err=%v", ok, err)
	}
	if ok, err := merged.Get(ids[1], &rec1); err != nil || !ok {
		t.Fatalf("reading record: ok=%v err=%v", ok, err)
	}
	check := func(what string, rec CellRecord) {
		t.Helper()
		if err := merged.Put(ids[0], &rec); err != nil {
			t.Fatal(err)
		}
		if _, err := Assemble(context.Background(), spec, merged); err == nil {
			t.Errorf("assemble with %s accepted", what)
		}
	}
	stale := rec0
	stale.SchemaVersion = "crn-sweep/0"
	check("a stale schema version", stale)
	check("a record filed under another cell's identity", rec1)

	// And the happy path still assembles after all that.
	if err := merged.Put(ids[0], &rec0); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(context.Background(), spec, merged); err != nil {
		t.Fatalf("valid assemble failed: %v", err)
	}
}

// runCounting runs the spec with a cache, returning the grid's JSON and
// how many cells were executed vs loaded.
func runCounting(t *testing.T, spec Spec, store *cache.Store) (data []byte, executed, cached int) {
	t.Helper()
	grid, err := Run(context.Background(), spec, Options{
		Cache: store,
		OnCell: func(done, total int, cell *CellSummary, fromCache bool) {
			if fromCache {
				cached++
			} else {
				executed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err = grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, executed, cached
}

func TestResumeExecutesOnlyMissingCells(t *testing.T) {
	// The resume contract: after an interrupted run, a re-run over the
	// same cache executes exactly the cells whose records are missing
	// and its artifact is byte-identical to an uninterrupted run.
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, executed, cached := runCounting(t, spec, store)
	if executed != 16 || cached != 0 {
		t.Fatalf("cold run: executed=%d cached=%d, want 16/0", executed, cached)
	}

	// Simulate a kill mid-sweep: drop 3 of the 16 completed-cell records.
	records, err := filepath.Glob(filepath.Join(store.Dir(), "*.json"))
	if err != nil || len(records) != 16 {
		t.Fatalf("cache holds %d records (%v), want 16", len(records), err)
	}
	for _, path := range records[:3] {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	got, executed, cached := runCounting(t, spec, store)
	if executed != 3 || cached != 13 {
		t.Fatalf("resumed run: executed=%d cached=%d, want 3/13", executed, cached)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed artifact differs from the uninterrupted run")
	}

	// A fully-warm resume executes nothing and still reproduces the bytes.
	got, executed, cached = runCounting(t, spec, store)
	if executed != 0 || cached != 16 {
		t.Fatalf("warm run: executed=%d cached=%d, want 0/16", executed, cached)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("fully-cached artifact differs from the uninterrupted run")
	}
}

func TestResumeIgnoresForeignAndCorruptRecords(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := runCounting(t, spec, store)

	// Corrupt one record (truncate) and tamper another's key; both must
	// be treated as misses and re-executed, not merged.
	records, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if err := os.WriteFile(records[0], []byte(`{"schema_version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var rec CellRecord
	id := filepath.Base(records[1])
	id = id[:len(id)-len(".json")]
	if ok, err := store.Get(id, &rec); err != nil || !ok {
		t.Fatalf("reading record %s: ok=%v err=%v", id, ok, err)
	}
	rec.Key = "not/the/right/cell"
	if err := store.Put(id, &rec); err != nil {
		t.Fatal(err)
	}

	got, executed, cached := runCounting(t, spec, store)
	if executed != 2 || cached != 14 {
		t.Fatalf("executed=%d cached=%d, want 2/14", executed, cached)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("artifact differs after invalid records were re-executed")
	}
}

func TestShardsShareOneCache(t *testing.T) {
	// Shard-filtered workers persist into the same store a cached Run
	// reuses: drain shard 1/2 into a store, then run the full grid over
	// it — only shard 2/2's cells execute.
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorker(context.Background(), spec, Options{Cache: store, Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, executed, cached := runCounting(t, spec, store)
	if cached != res.Executed || executed != 16-res.Executed {
		t.Fatalf("executed=%d cached=%d after a %d-cell shard", executed, cached, res.Executed)
	}
}
