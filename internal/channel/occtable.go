package channel

import "math/bits"

// occTable maps a packet ID to its last occurrence (occRef).  It is an
// open-addressing hash table sized to the live set: power-of-two
// capacity, linear probing, backward-shift deletion (no tombstones), and
// a load factor of at most one half.
//
// The detector only ever tracks the packets broadcast since the last
// decoding event — a few dozen IDs at a time — but those IDs are drawn
// from anywhere in the backlog, so they are sparse over the ID range.
// A table keyed by hash holds exactly the live set; capacity only grows,
// so after warm-up no operation allocates.  Occupancy lives in a bitset
// beside the 16-byte slots, not in a reserved key value, so every int64
// ID is a valid key.
//
// The zero value is an empty table; the first insert allocates.
type occTable struct {
	slots []occSlot // nil until the first insert; len is a power of two
	used  []uint64  // occupancy: bit i set iff slots[i] holds a key
	shift uint      // 64 - log2(len(slots)): hash keeps the top bits
	n     int
}

type occSlot struct {
	key PacketID
	ref occRef
}

// minOccSlots is the first allocation: room for 8 live packets at the
// maximum load, enough for most epochs of small κ without a regrow.
const minOccSlots = 16

// home returns key's preferred slot (Fibonacci hashing: multiply by
// 2⁶⁴/φ and keep the top bits, which spreads sequential and clustered
// IDs alike).
func (t *occTable) home(key PacketID) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

func (t *occTable) isUsed(i int) bool { return t.used[i>>6]&(1<<(i&63)) != 0 }

// Len returns the number of live keys.
func (t *occTable) Len() int { return t.n }

// find returns the slot holding key, or -1.
func (t *occTable) find(key PacketID) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if !t.isUsed(i) {
			return -1
		}
		if t.slots[i].key == key {
			return i
		}
	}
}

// Put stores ref under key, inserting or overwriting.
func (t *occTable) Put(key PacketID, ref occRef) { t.Swap(key, ref) }

// Swap stores ref under key and returns the previous reference, if any.
func (t *occTable) Swap(key PacketID, ref occRef) (occRef, bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !t.isUsed(i) {
			*s = occSlot{key: key, ref: ref}
			t.used[i>>6] |= 1 << (i & 63)
			t.n++
			return occRef{}, false
		}
		if s.key == key {
			old := s.ref
			s.ref = ref
			return old, true
		}
	}
}

// Delete removes key, returning the reference it held.  The probe run
// after the hole shifts back so lookups never need tombstones.
func (t *occTable) Delete(key PacketID) (occRef, bool) {
	i := t.find(key)
	if i < 0 {
		return occRef{}, false
	}
	old := t.slots[i].ref
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.isUsed(j); j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its
		// probe path, i.e. i is no further from j than j's home is.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.used[i>>6] &^= 1 << (i & 63)
	t.n--
	return old, true
}

// Rebase subtracts by from every reference's entry coordinate, clamping
// at zero (see Channel.prune).
func (t *occTable) Rebase(by int32) {
	for w, word := range t.used {
		for ; word != 0; word &= word - 1 {
			r := &t.slots[w<<6+bits.TrailingZeros64(word)].ref
			r.abs = max(r.abs-by, 0)
		}
	}
}

// Reset empties the table, keeping its storage.
func (t *occTable) Reset() {
	clear(t.used)
	t.n = 0
}

// grow doubles the capacity (or makes the first allocation) and
// reinserts every live key.
func (t *occTable) grow() {
	old, oldUsed := t.slots, t.used
	size := max(2*len(old), minOccSlots)
	t.slots = make([]occSlot, size)
	t.used = make([]uint64, (size+63)/64)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for i, s := range old {
		if oldUsed[i>>6]&(1<<(i&63)) != 0 {
			t.Swap(s.key, s.ref)
		}
	}
}
