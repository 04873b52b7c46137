// Package arena provides a dense, page-recycling live set of int64
// keys for the engine's per-packet bookkeeping.
//
// It has two users, both keyed by packet ID over the whole backlog: the
// engine's in-flight set (internal/sim) and the DBA core's pending set
// (internal/core).  Neither stores a value per packet: the engine
// recovers inject slots from its run list and the DBA core finds a
// packet in its joiner list, so all either needs from a key is whether
// it is live.  The engine assigns packet IDs sequentially, delivers
// them in bursts, and frees their state on delivery (the
// backlog-bounded memory contract), so the live keys form a dense band
// that slides forward.  That access pattern is pathological for Go's
// hash maps (every lookup re-hashes, every delete tombstones) but ideal
// for a paged bitmap: a key indexes directly into a fixed-size page,
// occupancy is one bit, and pages whose keys have all been deleted
// return to a free list so memory tracks the live key span, never total
// arrivals.  (A small live set scattered over the ID range — the
// channel's last occurrences — wants a hash table instead; see
// internal/channel.)
//
// The direct-indexed page table covers a window of at most
// maxSpanPages pages around the live keys and re-anchors in place as
// the band slides, so a steady sliding window allocates nothing; keys
// landing outside a window that cannot be re-anchored (possible only
// for key sets spanning more than ~2²⁵ values — fuzzers and adversarial
// tests, not the engine's sequential IDs) fall back to a page-granular
// overflow map, keeping every operation correct at hash-lookup speed
// while the dense window keeps the hot path at array speed.
//
// Set is not safe for concurrent use, matching the structures it
// replaces.
package arena

import (
	"math/bits"
	"sort"
)

const (
	pageBits = 9
	// PageSize is the number of keys per page.  A page is its 64-byte
	// occupancy bitmap plus a live count — 72 bytes per 512 keys — so a
	// sparse key set strands little memory per touched page.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1

	// maxSpanPages bounds the direct-indexed page table: 2¹⁶ pages is a
	// 512 KiB table covering a 2²⁵-key dense span — far beyond any
	// in-flight backlog the engine produces, small enough that the
	// table itself can never become the memory story.
	maxSpanPages = 1 << 16
)

// page holds one aligned block of PageSize keys: an occupancy bitmap
// and a live count so a fully-vacated page can be recycled in O(1).
type page struct {
	occ  [PageSize / 64]uint64
	live int
}

// Set is a set of int64 keys.  The zero value is an empty set ready for
// use.  Membership updates and lookups are O(1); memory is proportional
// to the number of pages holding live keys.
type Set struct {
	basePage int64 // page number (key >> pageBits) of pages[0]
	pages    []*page
	over     map[int64]*page // pages outside the dense window, by page number
	free     []*page
	n        int
}

// Len returns the number of live keys.
func (x *Set) Len() int { return x.n }

// Has reports whether key is present.
func (x *Set) Has(key int64) bool {
	var p *page
	pi := (key >> pageBits) - x.basePage
	if pi >= 0 && pi < int64(len(x.pages)) {
		p = x.pages[pi]
	} else if x.over != nil {
		p = x.over[key>>pageBits]
	}
	s := key & pageMask
	return p != nil && p.occ[s>>6]&(1<<uint(s&63)) != 0
}

// Put adds key, reporting false (and changing nothing) if it was
// already present.
func (x *Set) Put(key int64) bool {
	p := x.ensure(key)
	s := key & pageMask
	w, b := s>>6, uint64(1)<<uint(s&63)
	if p.occ[w]&b != 0 {
		return false
	}
	p.occ[w] |= b
	p.live++
	x.n++
	return true
}

// Delete removes key, reporting whether it was present.  A page whose
// last key is deleted moves to the free list immediately.
func (x *Set) Delete(key int64) bool {
	kp := key >> pageBits
	pi := kp - x.basePage
	inWindow := pi >= 0 && pi < int64(len(x.pages))
	var p *page
	if inWindow {
		p = x.pages[pi]
	} else if x.over != nil {
		p = x.over[kp]
	}
	if p == nil {
		return false
	}
	s := key & pageMask
	w, b := s>>6, uint64(1)<<uint(s&63)
	if p.occ[w]&b == 0 {
		return false
	}
	p.occ[w] &^= b
	p.live--
	x.n--
	if p.live == 0 {
		if inWindow {
			x.pages[pi] = nil
		} else {
			delete(x.over, kp)
		}
		x.free = append(x.free, p)
	}
	return true
}

// ensure returns the page for key, mapping it if necessary: from the
// dense window when the key fits (re-anchoring the window to the live
// span first), from the overflow map otherwise.
func (x *Set) ensure(key int64) *page {
	kp := key >> pageBits
	pi := kp - x.basePage
	if pi >= 0 && pi < int64(len(x.pages)) {
		if p := x.pages[pi]; p != nil {
			return p
		}
		p := x.newPage()
		x.pages[pi] = p
		return p
	}
	if p := x.over[kp]; p != nil {
		return p
	}
	if x.fitWindow(kp) {
		p := x.newPage()
		x.pages[kp-x.basePage] = p
		return p
	}
	if x.over == nil {
		x.over = make(map[int64]*page)
	}
	p := x.newPage()
	x.over[kp] = p
	return p
}

// fitWindow tries to re-anchor the dense window so page kp indexes into
// it, trimming vacated edge pages first so a sliding key window (the
// engine's sequential IDs) reuses a bounded page table.  It reports
// false when the live span plus kp would exceed maxSpanPages.
func (x *Set) fitWindow(kp int64) bool {
	lo, hi := 0, len(x.pages)
	for lo < hi && x.pages[lo] == nil {
		lo++
	}
	for hi > lo && x.pages[hi-1] == nil {
		hi--
	}
	if lo == hi {
		// Window fully vacated: restart it at kp.
		x.pages = append(x.pages[:0], nil)
		x.basePage = kp
		return true
	}
	base := x.basePage + int64(lo)
	top := x.basePage + int64(hi) // exclusive
	newBase, newTop := base, top
	if kp < newBase {
		newBase = kp
	}
	if kp+1 > newTop {
		newTop = kp + 1
	}
	if newTop-newBase > maxSpanPages {
		return false
	}
	if newBase == x.basePage {
		// Pure top growth: extend in place (amortized append, bounded
		// by maxSpanPages).
		x.pages = x.pages[:hi]
		for int64(len(x.pages)) < newTop-x.basePage {
			x.pages = append(x.pages, nil)
		}
		return true
	}
	// Re-anchor: move the live pages to their offset from newBase and
	// clear every slot around them, in the existing backing array when
	// it is large enough — a sliding window re-anchors once per page it
	// advances, and must not allocate each time.
	span := int(newTop - newBase)
	off := int(base - newBase)
	var dst []*page
	if span <= cap(x.pages) {
		dst = x.pages[:max(span, len(x.pages))]
	} else {
		dst = make([]*page, span, 2*span)
	}
	copy(dst[off:], x.pages[lo:hi])
	clear(dst[:off])
	clear(dst[off+hi-lo:])
	x.pages = dst[:span]
	x.basePage = newBase
	return true
}

// newPage takes a page from the free list or allocates one.
func (x *Set) newPage() *page {
	if n := len(x.free); n > 0 {
		p := x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
		return p
	}
	return new(page)
}

// Reset empties the set, recycling every mapped page.
func (x *Set) Reset() {
	for i, p := range x.pages {
		if p == nil {
			continue
		}
		*p = page{}
		x.free = append(x.free, p)
		x.pages[i] = nil
	}
	for kp, p := range x.over {
		*p = page{}
		x.free = append(x.free, p)
		delete(x.over, kp)
	}
	x.pages = x.pages[:0]
	x.basePage = 0
	x.n = 0
}

// Pages returns the number of currently mapped pages (diagnostics and
// memory-bound tests).
func (x *Set) Pages() int {
	n := len(x.over)
	for _, p := range x.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Range calls f for every live key until f returns false.  Iteration
// order is ascending.
func (x *Set) Range(f func(key int64) bool) {
	if len(x.over) == 0 {
		for pi, p := range x.pages {
			if p != nil && !rangePage(x.basePage+int64(pi), p, f) {
				return
			}
		}
		return
	}
	// Overflow pages present: merge both sources in page-number order.
	kps := make([]int64, 0, len(x.over)+len(x.pages))
	for kp := range x.over {
		kps = append(kps, kp)
	}
	for pi, p := range x.pages {
		if p != nil {
			kps = append(kps, x.basePage+int64(pi))
		}
	}
	sort.Slice(kps, func(i, j int) bool { return kps[i] < kps[j] })
	for _, kp := range kps {
		p := x.over[kp]
		if p == nil {
			p = x.pages[kp-x.basePage]
		}
		if !rangePage(kp, p, f) {
			return
		}
	}
}

func rangePage(kp int64, p *page, f func(key int64) bool) bool {
	base := kp << pageBits
	for w, word := range p.occ {
		for word != 0 {
			if !f(base + int64(w<<6) + int64(bits.TrailingZeros64(word))) {
				return false
			}
			word &= word - 1
		}
	}
	return true
}
