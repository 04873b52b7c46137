// Package arena provides a dense, page-recycling replacement for the
// map[int64]V bookkeeping on the engine's hot path.
//
// It has two users, both keyed by packet ID over the whole backlog: the
// engine's in-flight table (internal/sim) and the DBA core's packet
// locations (internal/core).  The engine assigns packet IDs
// sequentially, delivers them in bursts, and frees their state on
// delivery (the backlog-bounded memory contract), so their live keys
// form a dense band that slides forward.  That access pattern is
// pathological for Go's hash maps (every lookup re-hashes, every delete
// tombstones) but ideal for a paged array: a key indexes directly into
// a fixed-size page, occupancy is one bit, and pages whose entries have
// all been deleted return to a free list so memory tracks the live key
// span, never total arrivals.  (A small live set scattered over the ID
// range — the channel's last occurrences — wants a hash table instead;
// see internal/channel.)
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
// Index is not safe for concurrent use, matching the structures it
// replaces.
package arena

import (
	"math/bits"
	"sort"
)

const (
	pageBits = 9
	// PageSize is the number of key slots per page.  512 entries keeps a
	// page of small values within a few KiB — large enough to amortize
	// the indirection, small enough that a sparse key set does not
	// strand much memory per touched page.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1

	// maxSpanPages bounds the direct-indexed page table: 2¹⁶ pages is a
	// 512 KiB table covering a 2²⁵-key dense span — far beyond any
	// in-flight backlog the engine produces, small enough that the
	// table itself can never become the memory story.
	maxSpanPages = 1 << 16
)

// page holds one aligned block of PageSize key slots: an occupancy
// bitmap, the values, and a live count so a fully-vacated page can be
// recycled in O(1).
type page[V any] struct {
	occ  [PageSize / 64]uint64
	live int
	vals [PageSize]V
}

// Index maps int64 keys to values of type V.  The zero value is an
// empty index ready for use.  Lookups and updates are O(1); memory is
// proportional to the number of pages holding live keys.
//
// Values should be pointer-free (the structures this package replaces
// all are): a deleted slot's value is zeroed, but recycled pages keep
// their backing arrays alive, so pointer-bearing values would still
// pin one page's worth of garbage per free-list entry.
type Index[V any] struct {
	basePage int64 // page number (key >> pageBits) of pages[0]
	pages    []*page[V]
	over     map[int64]*page[V] // pages outside the dense window, by page number
	free     []*page[V]
	n        int
}

// Len returns the number of live entries.
func (x *Index[V]) Len() int { return x.n }

// locate returns the page and in-page slot for key, or a nil page when
// the key's page is not mapped.
func (x *Index[V]) locate(key int64) (*page[V], int64) {
	pi := (key >> pageBits) - x.basePage
	if pi >= 0 && pi < int64(len(x.pages)) {
		return x.pages[pi], key & pageMask
	}
	if x.over != nil {
		return x.over[key>>pageBits], key & pageMask
	}
	return nil, key & pageMask
}

// Get returns the value stored under key.
func (x *Index[V]) Get(key int64) (V, bool) {
	p, s := x.locate(key)
	if p == nil || p.occ[s>>6]&(1<<uint(s&63)) == 0 {
		var zero V
		return zero, false
	}
	return p.vals[s], true
}

// Has reports whether key is present.
func (x *Index[V]) Has(key int64) bool {
	p, s := x.locate(key)
	return p != nil && p.occ[s>>6]&(1<<uint(s&63)) != 0
}

// Put stores v under key, inserting or overwriting.
func (x *Index[V]) Put(key int64, v V) { x.Swap(key, v) }

// Swap stores v under key and returns the previous value, if any.
func (x *Index[V]) Swap(key int64, v V) (V, bool) {
	p, s := x.ensure(key)
	w, b := s>>6, uint64(1)<<uint(s&63)
	if p.occ[w]&b != 0 {
		old := p.vals[s]
		p.vals[s] = v
		return old, true
	}
	p.occ[w] |= b
	p.live++
	x.n++
	p.vals[s] = v
	var zero V
	return zero, false
}

// Delete removes key, returning the value it held.  A page whose last
// entry is deleted moves to the free list immediately.
func (x *Index[V]) Delete(key int64) (V, bool) {
	kp := key >> pageBits
	pi := kp - x.basePage
	inWindow := pi >= 0 && pi < int64(len(x.pages))
	var p *page[V]
	if inWindow {
		p = x.pages[pi]
	} else if x.over != nil {
		p = x.over[kp]
	}
	var zero V
	if p == nil {
		return zero, false
	}
	s := key & pageMask
	w, b := s>>6, uint64(1)<<uint(s&63)
	if p.occ[w]&b == 0 {
		return zero, false
	}
	v := p.vals[s]
	p.vals[s] = zero
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
	return v, true
}

// ensure returns the page for key, mapping it if necessary: from the
// dense window when the key fits (re-anchoring the window to the live
// span first), from the overflow map otherwise.
func (x *Index[V]) ensure(key int64) (*page[V], int64) {
	kp := key >> pageBits
	s := key & pageMask
	pi := kp - x.basePage
	if pi >= 0 && pi < int64(len(x.pages)) {
		if p := x.pages[pi]; p != nil {
			return p, s
		}
		p := x.newPage()
		x.pages[pi] = p
		return p, s
	}
	if p := x.over[kp]; p != nil {
		return p, s
	}
	if x.fitWindow(kp) {
		p := x.newPage()
		x.pages[kp-x.basePage] = p
		return p, s
	}
	if x.over == nil {
		x.over = make(map[int64]*page[V])
	}
	p := x.newPage()
	x.over[kp] = p
	return p, s
}

// fitWindow tries to re-anchor the dense window so page kp indexes into
// it, trimming vacated edge pages first so a sliding key window (the
// engine's sequential IDs) reuses a bounded page table.  It reports
// false when the live span plus kp would exceed maxSpanPages.
func (x *Index[V]) fitWindow(kp int64) bool {
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
	var dst []*page[V]
	if span <= cap(x.pages) {
		dst = x.pages[:max(span, len(x.pages))]
	} else {
		dst = make([]*page[V], span, 2*span)
	}
	copy(dst[off:], x.pages[lo:hi])
	clear(dst[:off])
	clear(dst[off+hi-lo:])
	x.pages = dst[:span]
	x.basePage = newBase
	return true
}

// newPage takes a page from the free list or allocates one.
func (x *Index[V]) newPage() *page[V] {
	if n := len(x.free); n > 0 {
		p := x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
		return p
	}
	return new(page[V])
}

// Reset empties the index, recycling every mapped page.
func (x *Index[V]) Reset() {
	for i, p := range x.pages {
		if p == nil {
			continue
		}
		if p.live > 0 {
			*p = page[V]{}
		}
		x.free = append(x.free, p)
		x.pages[i] = nil
	}
	for kp, p := range x.over {
		if p.live > 0 {
			*p = page[V]{}
		}
		x.free = append(x.free, p)
		delete(x.over, kp)
	}
	x.pages = x.pages[:0]
	x.basePage = 0
	x.n = 0
}

// Pages returns the number of currently mapped pages (diagnostics and
// memory-bound tests).
func (x *Index[V]) Pages() int {
	n := len(x.over)
	for _, p := range x.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Range calls f for every live entry until f returns false.  Iteration
// order is ascending by key.
func (x *Index[V]) Range(f func(key int64, v V) bool) {
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

func rangePage[V any](kp int64, p *page[V], f func(key int64, v V) bool) bool {
	base := kp << pageBits
	for w, word := range p.occ {
		for word != 0 {
			s := int64(w<<6) + int64(bits.TrailingZeros64(word))
			if !f(base+s, p.vals[s]) {
				return false
			}
			word &= word - 1
		}
	}
	return true
}
