package main

import (
	"sync"
	"time"

	"repro/internal/cache"
)

// storeStats is what the cache.Backend decorator records during one
// drain and read-back.
type storeStats struct {
	get, put, list, claim timer
	getHits, claimGrants  int64
	// exec sums the intervals from a granted Claim to the Put of the
	// same cell: the time sweep spent computing cells.
	exec timer
}

func (s *storeStats) seconds() float64 {
	return s.get.seconds() + s.put.seconds() + s.list.seconds() + s.claim.seconds()
}

// tBackend times the calls sweep.RunWorker and sweep.Assemble make into
// a cache.Backend and records one span per call.  RunWorker renews
// leases from a second goroutine, so the decorator locks.
type tBackend struct {
	in      cache.Backend
	spans   *spanLog
	run     int
	parent  int
	mu      sync.Mutex
	s       storeStats
	claimed map[string]time.Time
	execIDs map[string]int
}

func wrapBackend(in cache.Backend, spans *spanLog, run int) *tBackend {
	return &tBackend{in: in, spans: spans, run: run, parent: -1,
		claimed: map[string]time.Time{}, execIDs: map[string]int{}}
}

// setParent makes later calls record their spans under span id.
func (b *tBackend) setParent(id int) {
	b.mu.Lock()
	b.parent = id
	b.mu.Unlock()
}

func (b *tBackend) open(name string) (int, time.Time) {
	b.mu.Lock()
	parent := b.parent
	b.mu.Unlock()
	return b.spans.begin(b.run, parent, name), time.Now()
}

func (b *tBackend) Get(id string, v interface{}) (bool, error) {
	sp, t := b.open("cache.get")
	ok, err := b.in.Get(id, v)
	b.spans.end(sp)
	b.mu.Lock()
	b.s.get.since(t)
	if ok {
		b.s.getHits++
	}
	b.mu.Unlock()
	return ok, err
}

func (b *tBackend) Put(id string, v interface{}) error {
	b.mu.Lock()
	if start, ok := b.claimed[id]; ok {
		b.s.exec.since(start)
		delete(b.claimed, id)
		b.spans.end(b.execIDs[id])
		delete(b.execIDs, id)
	}
	b.mu.Unlock()
	sp, t := b.open("cache.put")
	err := b.in.Put(id, v)
	b.spans.end(sp)
	b.mu.Lock()
	b.s.put.since(t)
	b.mu.Unlock()
	return err
}

func (b *tBackend) List() ([]string, error) {
	sp, t := b.open("cache.list")
	ids, err := b.in.List()
	b.spans.end(sp)
	b.mu.Lock()
	b.s.list.since(t)
	b.mu.Unlock()
	return ids, err
}

func (b *tBackend) Claim(id, owner string, ttl time.Duration) (bool, error) {
	sp, t := b.open("cache.claim")
	ok, err := b.in.Claim(id, owner, ttl)
	b.spans.end(sp)
	b.mu.Lock()
	b.s.claim.since(t)
	if ok {
		b.s.claimGrants++
		// A renewal of a lease already held keeps the first grant time.
		if _, held := b.claimed[id]; !held {
			b.claimed[id] = time.Now()
			b.execIDs[id] = b.spans.begin(b.run, b.parent, "sweep.exec")
		}
	}
	b.mu.Unlock()
	return ok, err
}

func (b *tBackend) stats() storeStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.s
}
