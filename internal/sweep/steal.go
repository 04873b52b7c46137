package sweep

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// DefaultLeaseTTL is the claim lifetime a worker uses when Options
// leaves LeaseTTL unset.  It trades preemption latency (a dead worker's
// cells stay unstealable this long) against duplicate work (a cell
// slower than the TTL gets re-claimed while still running — benign but
// wasted); two minutes comfortably covers the committed grids' cells.
const DefaultLeaseTTL = 2 * time.Minute

// defaultPoll is the rescan interval when every missing cell is leased
// to another worker.
const defaultPoll = 100 * time.Millisecond

// minLeaseTTL is the shortest LeaseTTL a worker accepts.  Leases are
// renewed every TTL/2 while their cell is in flight, and a renewal
// interval below half a millisecond would turn the renewer into a busy
// loop against the backend.
const minLeaseTTL = time.Millisecond

// execDelay is a test hook run in a lane before each trial of a claimed
// cell executes (deliberately slow cells for lease-renewal and
// pipelining tests).  Always nil outside tests.
var execDelay func(owner string, cell int)

// WorkerResult summarizes one work-stealing worker's participation in
// draining a grid.  It is a progress report, not a merge artifact: the
// grid itself is assembled from the shared backend (Assemble), which is
// what makes workers interchangeable and killable.
type WorkerResult struct {
	// Owner is the lease label the worker claimed cells under.
	Owner string `json:"owner"`
	// Total is the number of cells the worker drained: the grid's cell
	// count, or its shard's under Options.Shard.
	Total int `json:"total_cells"`
	// Executed counts the cells this worker claimed and computed.
	Executed int `json:"executed"`
	// Loaded counts the cells this worker found already completed in the
	// backend (by an earlier run or another worker).
	Loaded int `json:"loaded"`
}

// RunWorker drains one grid — or the cells Options.Shard selects —
// into the shared backend in Options.Cache: it scans the cells for
// records that are missing, claims each with a TTL lease, executes it,
// and persists the record.  Workers never talk to each other — the
// backend's records and leases are the entire coordination protocol —
// so any number of heterogeneous machines can join, leave, or crash
// mid-run: a dead worker's leases expire and its cells are re-claimed by
// whoever gets there first.  Shard-filtered workers writing to separate
// stores are a static split of the grid; the union of their record
// files is one store that Assemble reads back.
//
// The function returns when every selected cell has a valid record in
// the backend (some computed here, the rest observed), or when ctx is
// cancelled, or on the first backend error.  Cancellation stops the
// dispatch: no cell is claimed and no trial starts after it, trials
// already running finish, and a cell whose last trial finishes is still
// persisted and reported.  Cell identities, trial seeds, skip rules, and
// summaries are exactly those of Run — scheduling decides who computes a
// cell, never what it contains — so Assemble over the drained backend is
// byte-identical to Run.
func RunWorker(ctx context.Context, spec Spec, opts Options) (*WorkerResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Cache == nil {
		return nil, fmt.Errorf("sweep: work-stealing needs a shared Cache backend")
	}
	return drain(ctx, &spec, opts, true, nil)
}

// drain is the sweep's one scheduler, behind both Run and RunWorker.  A
// single dispatcher scans the selected cells in canonical order.  With
// a backend it loads each cell whose record matches; it takes every
// other cell, under claim only once it holds the cell's lease (cells
// leased to someone else wait for a later scan) — except a cell whose
// record is stale (see loadCell), which no lease can cover.  A taken
// cell's trials go to Parallelism lanes over an unbuffered channel, so
// the dispatcher reaches the next cell only once a lane has accepted
// this cell's last trial, and cells overlap instead of waiting for each
// other's stragglers.  The lane that lands a cell's last trial summarizes the
// cell and persists it.  One renewer re-claims the leases of all cells
// in flight every TTL/2.
//
// keep, if non-nil, receives every completed cell, loaded or executed;
// it and OnCell are called under the scheduler's lock.  spec must be
// validated.
func drain(ctx context.Context, spec *Spec, opts Options, claim bool, keep func(i int, cell *CellSummary)) (*WorkerResult, error) {
	if err := opts.Shard.Validate(); err != nil {
		return nil, err
	}
	if opts.LeaseTTL < 0 || (opts.LeaseTTL > 0 && opts.LeaseTTL < minLeaseTTL) {
		return nil, fmt.Errorf("sweep: lease TTL %v is below the %v minimum (leases renew every TTL/2)", opts.LeaseTTL, minLeaseTTL)
	}
	if opts.Poll < 0 {
		return nil, fmt.Errorf("sweep: negative poll interval %v", opts.Poll)
	}
	backend := opts.Cache
	owner := opts.Owner
	if owner == "" {
		owner = fmt.Sprintf("worker-%d", os.Getpid())
	}
	ttl := opts.LeaseTTL
	if ttl == 0 {
		ttl = DefaultLeaseTTL
	}
	poll := opts.Poll
	if poll == 0 {
		poll = defaultPoll
	}
	lanes := opts.Parallelism
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}

	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	trials := spec.Trials
	selected := opts.Shard.Indices(len(cells))
	ids := make([]string, len(cells))
	if backend != nil {
		for _, i := range selected {
			ids[i] = cellID(cells[i], spec, seeds[i*trials:(i+1)*trials])
		}
	}

	res := &WorkerResult{Owner: owner, Total: len(selected)}
	var (
		mu     sync.Mutex
		done   int
		failed error            // first Put error
		leased = map[int]bool{} // claimed cells in flight
	)
	finish := func(i int, cell *CellSummary, cached bool) { // mu held
		done++
		if cached {
			res.Loaded++
		} else {
			res.Executed++
		}
		if keep != nil {
			keep(i, cell)
		}
		if opts.OnCell != nil {
			opts.OnCell(done, len(selected), cell, cached)
		}
	}

	// Each trial writes its own slot of outs; the atomic countdown per
	// cell orders those writes before the summarizing lane's reads.
	outs := make([]trialOut, len(cells)*trials)
	left := make([]int32, len(cells))
	runTrial := func(job int) {
		if ctx.Err() != nil {
			return // cancelled: start nothing new
		}
		i := job / trials
		if execDelay != nil {
			execDelay(owner, i)
		}
		sc, seed := cells[i], seeds[job]
		var errCount int64 // dba error epochs (Definition 2)
		cfg, proto, arr, err := spec.scenario(sc).Build(seed, scenario.ProtocolSeed(seed),
			protocol.EpochObserverFunc(func(info protocol.EpochInfo) {
				if info.Error {
					errCount++
				}
			}))
		if err != nil {
			panic(err) // Validate and Expand admit only valid cells
		}
		// Workers is result-neutral, so it stays out of cell identities.
		cfg.Workers = cmp.Or(spec.Workers, opts.Workers)
		outs[job] = trialOut{res: sim.Run(cfg, proto, arr), errEpochs: errCount}
		if atomic.AddInt32(&left[i], -1) > 0 {
			return
		}
		cellOuts := outs[i*trials : (i+1)*trials]
		cell := summarize(sc, cellOuts)
		clear(cellOuts) // drop the trials' results (and their latency reservoirs) now
		if backend != nil {
			err = putCell(backend, ids[i], i, sc.Key(), cell)
		}
		mu.Lock()
		defer mu.Unlock()
		delete(leased, i)
		if err != nil {
			if failed == nil {
				failed = err
			}
			return
		}
		finish(i, &cell, false)
	}

	jobs := make(chan int)
	lanesDone := make(chan struct{})
	go func() {
		defer close(lanesDone)
		sim.ForEach(lanes, lanes, func(int) {
			for job := range jobs {
				runTrial(job)
			}
		})
	}()

	stopRenew, renewDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(renewDone)
		if !claim {
			return
		}
		t := time.NewTicker(ttl / 2)
		defer t.Stop()
		for {
			select {
			case <-stopRenew:
				return
			case <-t.C:
			}
			mu.Lock()
			held := make([]string, 0, len(leased))
			for i := range leased {
				held = append(held, ids[i])
			}
			mu.Unlock()
			// Renewal failures are deliberately ignored: losing a lease
			// costs at worst a duplicate execution, which
			// content-addressed records absorb.
			for _, id := range held {
				_, _ = backend.Claim(id, owner, ttl)
			}
		}
	}()

	err := func() error {
		open := selected // cells neither taken nor loaded yet, ascending
		for len(open) > 0 {
			progressed := false
			waiting := open[:0]
			for _, i := range open {
				if err := ctx.Err(); err != nil {
					return err
				}
				mu.Lock()
				err := failed
				mu.Unlock()
				if err != nil {
					return err
				}
				stale := false // no lease covers a stale record (see loadCell)
				if backend != nil {
					cell, ok, st, err := loadCell(backend, ids[i], cells[i].Key())
					if err != nil {
						return err
					}
					if ok {
						mu.Lock()
						finish(i, &cell, true)
						mu.Unlock()
						progressed = true
						continue
					}
					stale = st
				}
				if claim && !stale {
					claimed, err := backend.Claim(ids[i], owner, ttl)
					if err != nil {
						return err
					}
					if !claimed {
						// Another owner holds the lease (or just completed
						// the cell; a later scan loads it).
						waiting = append(waiting, i)
						continue
					}
					// A worker killed from here until the record lands
					// leaves a lease that expires after ttl; a surviving
					// worker then re-claims the cell.
					mu.Lock()
					leased[i] = true
					mu.Unlock()
				}
				progressed = true
				left[i] = int32(trials)
				for t := 0; t < trials; t++ {
					select {
					case jobs <- i*trials + t:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
			}
			open = waiting
			if len(open) > 0 && !progressed {
				// Every missing cell is leased to another live worker:
				// wait for their records to land or their leases to
				// expire.
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(poll):
				}
			}
		}
		return nil
	}()
	close(jobs)
	<-lanesDone
	close(stopRenew)
	<-renewDone

	mu.Lock()
	defer mu.Unlock()
	switch {
	case done == len(selected):
		return res, nil
	case err != nil:
		return res, err
	case failed != nil:
		return res, failed
	}
	return res, ctx.Err()
}

// Assemble reassembles the full Grid from a backend that workers,
// shard-filtered workers, or cached Runs have populated — they all share
// one record namespace — verifying every cell's content identity against
// what the spec derives.  The returned Grid renders byte-identically to
// Run of the same spec.  Missing cells are an error naming how much of the grid is
// absent — run more workers, or wait for the ones still going.  Cancel
// ctx to stop between cells (useful against a slow remote backend).
func Assemble(ctx context.Context, spec Spec, backend cache.Backend) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("sweep: assemble needs a backend")
	}
	cells := spec.Expand()
	allSeeds := spec.jobSeeds(len(cells))
	grid := &Grid{Spec: spec, Cells: make([]CellSummary, len(cells))}
	firstMissing, missing := -1, 0
	for i, sc := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := cellID(sc, &spec, allSeeds[i*spec.Trials:(i+1)*spec.Trials])
		cell, ok, _, err := loadCell(backend, id, sc.Key())
		if err != nil {
			return nil, err
		}
		if !ok {
			if firstMissing < 0 {
				firstMissing = i
			}
			missing++
			continue
		}
		grid.Cells[i] = cell
	}
	if missing > 0 {
		return nil, fmt.Errorf("sweep: backend holds %d of %d cells; first missing cell %d (%s) — workers still running, or not enough ran",
			len(cells)-missing, len(cells), firstMissing, cells[firstMissing].Key())
	}
	return grid, nil
}
