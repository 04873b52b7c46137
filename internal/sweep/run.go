package sweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
)

// protoSeedSalt decorrelates a trial's protocol rng stream from its
// arrival stream (which uses the trial seed directly via sim.Config).
const protoSeedSalt = 0x70726f746f636f6c // "protocol"

// Options tunes sweep execution.  The zero value is ready to use.
type Options struct {
	// Parallelism is the number of trial lanes (0 = GOMAXPROCS).
	Parallelism int
	// Workers sets sim.Config.Workers (the staged intra-trial engine)
	// for trials whose spec leaves its own Workers unset.  It is an
	// execution-side knob of the machine running the sweep: results are
	// bit-identical at any value, so — like Parallelism — it never
	// enters cell identities or artifacts.
	Workers int
	// OnCell, if set, is called as each selected cell completes —
	// executed, or loaded from Cache — with the number of completed
	// cells and the selected total.  Calls are serialized; loaded cells
	// are reported as the scan reaches them, executed cells as their
	// last trial lands.
	OnCell func(done, total int, cell *CellSummary, cached bool)
	// Cache, if non-nil, is the cell store: every completed cell is
	// persisted as a content-addressed record keyed by cell identity,
	// and every cell whose record is already there and matches is loaded
	// instead of executed.  RunWorker, which requires it, also claims
	// each missing cell with a lease first, so workers on other machines
	// do not compute a cell twice.  A filesystem *cache.Store and an
	// httpstore.Client are interchangeable here.
	Cache cache.Backend
	// Shard restricts a RunWorker to the cells it selects (the zero
	// value selects the whole grid): a static k/N split of the grid is N
	// workers with N shards, whose records Assemble reads back as one
	// grid.  Run always builds the whole grid and rejects a Shard.
	Shard Shard

	// Owner identifies this worker in lease claims (RunWorker only).
	// Empty derives a process-unique label.  Purely diagnostic: results never depend on
	// it.
	Owner string
	// LeaseTTL bounds how long a claimed-but-unfinished cell stays
	// unstealable after its worker dies (RunWorker only; 0 =
	// DefaultLeaseTTL, otherwise at least 1ms).  Leases of cells in
	// flight are renewed every LeaseTTL/2, so a slow cell stays owned; a
	// dead worker's leases lapse after at most LeaseTTL.
	LeaseTTL time.Duration
	// Poll is how long a worker waits between scans when every missing
	// cell is leased to someone else (RunWorker only; 0 = 100ms).
	Poll time.Duration
}

// trialOut carries one trial's result plus the side-channel measurements
// the sim.Result does not hold.
type trialOut struct {
	res       *sim.Result
	errEpochs int64
}

// CellRecord is the cache-record schema for one completed cell — the
// unit the shared backend stores and crnquery reads.  The identity
// fields are re-checked on load: a record whose stored identity,
// scenario key, or schema version disagrees with what the spec derives
// is ignored (treated as a miss), never merged.
type CellRecord struct {
	SchemaVersion string      `json:"schema_version"`
	ID            string      `json:"id"`
	Key           string      `json:"key"`
	Index         int         `json:"index"`
	Cell          CellSummary `json:"cell"`
}

// matches reports whether a loaded record is trustworthy for the given
// identity and scenario key under the current schema.
func (r *CellRecord) matches(id, key string) bool {
	return r.SchemaVersion == SchemaVersion && r.ID == id && r.Key == key
}

// loadCell fetches and verifies one cell from a backend.  Absent,
// corrupt, foreign, and stale-schema records are all misses.
func loadCell(b cache.Backend, id, key string) (CellSummary, bool, error) {
	var rec CellRecord
	ok, err := b.Get(id, &rec)
	if err != nil {
		return CellSummary{}, false, err
	}
	if !ok || !rec.matches(id, key) {
		return CellSummary{}, false, nil
	}
	return rec.Cell, true, nil
}

// putCell persists one completed cell to a backend.
func putCell(b cache.Backend, id string, index int, key string, cell CellSummary) error {
	return b.Put(id, &CellRecord{
		SchemaVersion: SchemaVersion,
		ID:            id,
		Key:           key,
		Index:         index,
		Cell:          cell,
	})
}

// Run expands the spec and computes every cell through the sweep's one
// scheduler (see RunWorker), keeping the summaries in memory.  Trial
// seeds derive deterministically from spec.Seed in canonical cell
// order, so the resulting Grid is identical for any parallelism.  With
// Options.Cache, Run also persists each cell and reuses every matching
// record already in the store, so a run interrupted at any point and
// started again is byte-identical to an uninterrupted one.  Run takes
// no leases: it owns the whole grid, so it executes every cell it
// cannot load rather than wait on another worker.  Like a worker, it
// overwrites any corrupt or foreign record it finds.
// Cancellation follows RunWorker's contract; Run then returns the
// context's error and no Grid.
func Run(ctx context.Context, spec Spec, opts Options) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !opts.Shard.IsAll() {
		return nil, fmt.Errorf("sweep: Run builds the whole grid; shard %s applies to RunWorker", opts.Shard)
	}
	grid := &Grid{Spec: spec, Cells: make([]CellSummary, spec.Cells())}
	if _, err := drain(ctx, &spec, opts, false, func(i int, cell *CellSummary) { grid.Cells[i] = *cell }); err != nil {
		return nil, err
	}
	return grid, nil
}
