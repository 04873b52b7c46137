package cache

import "time"

// Backend is the record-store contract the sweep executor runs against:
// a shared namespace of content-addressed JSON records plus an advisory
// lease table.  The filesystem Store implements it for single-machine
// (or shared-filesystem) use; httpstore.Client implements it over a
// crnserve instance so many machines share one namespace.
//
// Semantics every implementation must honor:
//
//   - Get is a miss (false, nil) for absent, corrupt, or undecodable
//     records — damage degrades to re-execution, never to a failed run.
//   - Put atomically replaces any previous record and supersedes any
//     lease on the same identity.  Records are content-addressed (the
//     identity is a digest of everything that determines the content),
//     so concurrent Puts of one identity write identical bytes and
//     last-write-wins is benign.
//   - List returns the identities of the records currently present, in
//     ascending order, so enumeration is deterministic.
//   - Claim grants an advisory lease: it returns true when the caller
//     now holds the identity (no sound completed record exists, and no
//     other owner holds an unexpired lease), renewing the caller's own
//     lease if it already holds one.  Expired or corrupt leases, and
//     records that are not Sound (undecodable, or naming another
//     identity in a top-level "id" field), degrade to misses and are
//     re-claimable, so a damaged record never blocks a worker.  A
//     reader that cannot use a sound record overwrites it without a
//     lease (the sweep does this for stale cell records).  Leases are cooperative, not mutual
//     exclusion: two racing workers may both win, execute the cell
//     twice, and Put identical bytes — wasted work, never a wrong
//     record.
type Backend interface {
	Get(id string, v interface{}) (bool, error)
	Put(id string, v interface{}) error
	List() ([]string, error)
	Claim(id, owner string, ttl time.Duration) (bool, error)
}

// Store implements Backend.
var _ Backend = (*Store)(nil)
