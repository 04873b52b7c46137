package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// Inputs of sweep_drain, read from the root of the checkout.
const (
	benchSpecFile     = "bench_spec.json"
	benchArtifactFile = "BENCH_sweep.json"
)

// sweepDrain drains the committed bench grid with one work-stealing
// worker (sweep.RunWorker, Parallelism = nproc) into a fresh filesystem
// cell store, then reads it back with sweep.Assemble.
type sweepDrain struct {
	specData []byte
	want     []byte // BENCH_sweep.json, compared at its own seed
	wantSeed uint64
	path     string // the scratch store, emptied after every drain
	dirty    bool   // a drain has written to the store since it was emptied

	// the repetition in flight
	seed     uint64
	spec     sweep.Spec
	cells    int
	store    *cache.Store
	tb       *tBackend
	cellMs   []float64
	worker   *sweep.WorkerResult
	grid     *sweep.Grid
	drain    time.Duration
	assemble time.Duration
	drainOps storeStats // backend records at the end of the drain
}

func newSweepDrain(opts runOptions) (workload, error) {
	spec, err := os.ReadFile(benchSpecFile)
	if err != nil {
		return nil, err
	}
	want, err := os.ReadFile(benchArtifactFile)
	if err != nil {
		return nil, err
	}
	var art sweep.BenchArtifact
	if err := json.Unmarshal(want, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", benchArtifactFile, err)
	}
	s := &sweepDrain{
		specData: spec,
		want:     want,
		wantSeed: art.Seed,
		path:     filepath.Join(opts.dir, fmt.Sprintf("store-%d", os.Getpid())),
	}
	if err := s.emptyStore(); err != nil {
		return nil, err
	}
	return s, nil
}

// emptyStore leaves an empty directory at the store's path.  It runs
// outside the timed set-up: removing a drained store's 132 records is
// filesystem work a worker never pays, and far noisier than the set-up.
func (s *sweepDrain) emptyStore() error {
	if err := os.RemoveAll(s.path); err != nil {
		return err
	}
	return os.MkdirAll(s.path, 0o755)
}

// setup covers what a worker pays before its first claim: parsing and
// expanding the spec, and opening the (empty) store.
func (s *sweepDrain) setup(seed uint64, traced bool) error {
	spec, err := sweep.ParseSpec(s.specData)
	if err != nil {
		return err
	}
	s.seed = seed
	spec.Seed = seed
	s.spec = *spec
	s.cells = len(s.spec.Expand())
	s.store, err = cache.Open(s.path)
	if err != nil {
		return err
	}
	s.tb = nil
	if traced {
		s.tb = wrapBackend(s.store, nil, 0)
	}
	return nil
}

func (s *sweepDrain) run(spans *spanLog, rep, parent int) error {
	var backend cache.Backend = s.store
	if s.tb != nil {
		s.tb.spans, s.tb.run = spans, rep
		backend = s.tb
	}
	ctx := context.Background()
	s.dirty = true
	s.cellMs = s.cellMs[:0]
	start := time.Now()
	last := start
	opts := sweep.Options{
		Parallelism: runtime.NumCPU(),
		Cache:       backend,
		Owner:       "perfbench",
		OnCell: func(done, total int, cell *sweep.CellSummary, cached bool) {
			now := time.Now()
			s.cellMs = append(s.cellMs, float64(now.Sub(last))/1e6)
			last = now
		},
	}
	sp := spans.begin(rep, parent, "sweep.RunWorker")
	if s.tb != nil {
		s.tb.setParent(sp)
	}
	var err error
	s.worker, err = sweep.RunWorker(ctx, s.spec, opts)
	spans.end(sp)
	s.drain = time.Since(start)
	if s.tb != nil {
		s.drainOps = s.tb.stats()
	}
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	sp = spans.begin(rep, parent, "sweep.Assemble")
	if s.tb != nil {
		s.tb.setParent(sp)
	}
	t := time.Now()
	s.grid, err = sweep.Assemble(ctx, s.spec, backend)
	s.assemble = time.Since(t)
	spans.end(sp)
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	return nil
}

func (s *sweepDrain) discard() {
	if s.dirty {
		// The stores are scratch data under the benchmark's own
		// directory.  A failure to empty one shows as cells loaded
		// rather than executed by the next drain.
		_ = s.emptyStore()
		s.dirty = false
	}
	s.store, s.tb, s.worker, s.grid = nil, nil, nil, nil
}

func (s *sweepDrain) close() { _ = os.RemoveAll(s.path) }

func (s *sweepDrain) collect(r *repResult) {
	defer s.discard()
	r.attempted = int64(s.cells)
	r.ops = append([]float64(nil), s.cellMs...)
	if s.grid == nil {
		r.failed = int64(s.cells)
		if s.worker != nil {
			r.failed = int64(s.cells - s.worker.Executed - s.worker.Loaded)
		}
		return
	}
	if s.worker.Executed != s.cells {
		r.problem("sweep_drain: worker executed %d of %d cells on a fresh store", s.worker.Executed, s.cells)
	}
	var thpt float64
	for i := range s.grid.Cells {
		c := &s.grid.Cells[i]
		r.slots += c.Elapsed
		thpt += c.Throughput.Mean
		if c.Arrivals != c.Delivered+c.Pending {
			r.failed++
			r.problem("sweep_drain: cell %s: arrivals %d != delivered %d + pending %d", c.Key(), c.Arrivals, c.Delivered, c.Pending)
		}
	}
	r.thpt = thpt / float64(len(s.grid.Cells))
	if len(s.grid.Cells) != s.cells {
		r.problem("sweep_drain: assembled %d cells, the spec expands to %d", len(s.grid.Cells), s.cells)
	}
	if s.seed == s.wantSeed {
		b, err := json.MarshalIndent(s.grid.Bench(), "", "  ")
		if err != nil {
			r.problem("sweep_drain: %v", err)
		} else if !bytes.Equal(append(b, '\n'), s.want) {
			r.problem("sweep_drain: assembled bench artifact differs from %s", benchArtifactFile)
		}
	}
	if r.traced {
		all := s.tb.stats()
		l := r.layers
		l["sweep.exec_s"] = s.drainOps.exec.seconds()
		l["sweep.sched_self_s"] = s.drain.Seconds() - s.drainOps.seconds() - s.drainOps.exec.seconds()
		l["sweep.assemble_s"] = s.assemble.Seconds()
		l["cache.get_calls"] = float64(all.get.calls)
		l["cache.get_s"] = all.get.seconds()
		l["cache.claim_calls"] = float64(all.claim.calls)
		l["cache.claim_s"] = all.claim.seconds()
		l["cache.put_calls"] = float64(all.put.calls)
		l["cache.put_s"] = all.put.seconds()
		l["cache.list_calls"] = float64(all.list.calls)
		l["_get_hits"] = float64(all.getHits)
		l["_claim_grants"] = float64(all.claimGrants)
	}
}
