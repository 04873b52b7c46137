package channel

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// checkOccTable asserts t holds exactly want: same length, every key
// found with its reference, no stray occupied slot, every live key
// reachable from its home slot without crossing an empty slot, and the
// load within one half.
func checkOccTable(t *testing.T, tab *occTable, want map[PacketID]occRef) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(want))
	}
	for k, v := range want {
		i := tab.find(k)
		if i < 0 || tab.slots[i].ref != v {
			t.Fatalf("find(%d) = %d, want the slot holding %+v", k, i, v)
		}
	}
	used := 0
	mask := len(tab.slots) - 1
	for i, s := range tab.slots {
		if !tab.isUsed(i) {
			continue
		}
		used++
		if _, ok := want[s.key]; !ok {
			t.Fatalf("stray key %d in slot %d", s.key, i)
		}
		for j := tab.home(s.key); j != i; j = (j + 1) & mask {
			if !tab.isUsed(j) {
				t.Fatalf("key %d in slot %d unreachable: gap at %d", s.key, i, j)
			}
		}
	}
	if used != len(want) {
		t.Fatalf("%d occupied slots, want %d", used, len(want))
	}
	if 2*tab.Len() > len(tab.slots) {
		t.Fatalf("load %d/%d above one half", tab.Len(), len(tab.slots))
	}
}

// occOp applies one operation to both the table and the map model.
func occOp(t *testing.T, tab *occTable, want map[PacketID]occRef, op byte, key PacketID, ref occRef) {
	t.Helper()
	switch op % 5 {
	case 0: // Put
		tab.Put(key, ref)
		want[key] = ref
	case 1: // Swap
		old, ok := tab.Swap(key, ref)
		wOld, wOK := want[key]
		if ok != wOK || old != wOld {
			t.Fatalf("Swap(%d) = %+v,%v, want %+v,%v", key, old, ok, wOld, wOK)
		}
		want[key] = ref
	case 2: // Delete
		old, ok := tab.Delete(key)
		wOld, wOK := want[key]
		if ok != wOK || old != wOld {
			t.Fatalf("Delete(%d) = %+v,%v, want %+v,%v", key, old, ok, wOld, wOK)
		}
		delete(want, key)
	case 3: // Reset, rarely
		if ref.abs%16 == 0 {
			tab.Reset()
			clear(want)
		}
	case 4: // Rebase by a small amount, clamping at zero
		by := ref.abs % 64
		tab.Rebase(by)
		for k, v := range want {
			want[k] = occRef{abs: max(v.abs-by, 0), pos: v.pos}
		}
	}
}

// homedAt returns n distinct keys whose home is the given slot of a
// freshly allocated table, so they share one probe run.
func homedAt(slot, n int) []PacketID {
	probe := occTable{shift: uint(64 - bits.TrailingZeros(minOccSlots))}
	var out []PacketID
	for k := PacketID(0); len(out) < n; k++ {
		if probe.home(k) == slot {
			out = append(out, k)
		}
	}
	return out
}

// TestOccTableAgainstMap drives random Put/Swap/Delete/Reset/Rebase sequences
// against a Go map, over key pools that cover the int64 edges, keys
// sharing one probe run, delete-heavy churn across the wrap of the
// probe array, and growth from empty.
func TestOccTableAgainstMap(t *testing.T) {
	edges := []PacketID{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	collide := homedAt(0, 6)
	// Keys homed at the last slot: their runs wrap to slot 0, so deletes
	// shift entries back across the wrap.
	wrap := homedAt(minOccSlots-1, 5)
	wide := make([]PacketID, 300)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range wide {
		wide[i] = PacketID(r.Int64())
	}
	pools := map[string][]PacketID{
		"edges":   edges,
		"collide": append(append([]PacketID(nil), collide...), edges...),
		"wrap":    append(append([]PacketID(nil), wrap...), collide...),
		"wide":    append(wide, edges...),
	}
	for name, pool := range pools {
		t.Run(name, func(t *testing.T) {
			var tab occTable
			want := map[PacketID]occRef{}
			for step := 0; step < 20000; step++ {
				op := byte(r.IntN(5))
				if name == "wrap" && r.IntN(3) == 0 {
					op = 2 // delete-heavy
				}
				key := pool[r.IntN(len(pool))]
				occOp(t, &tab, want, op, key, occRef{abs: r.Int32N(1 << 20), pos: int32(step)})
				if step%97 == 0 {
					checkOccTable(t, &tab, want)
				}
			}
			checkOccTable(t, &tab, want)
		})
	}
}

// TestOccTableGrowth fills a table far past its first allocation and
// drains it, checking the model at every power of two.
func TestOccTableGrowth(t *testing.T) {
	var tab occTable
	if tab.slots != nil {
		t.Fatal("zero table allocated")
	}
	want := map[PacketID]occRef{}
	for i := 0; i < 5000; i++ {
		k := PacketID(i*7919 - 2500)
		ref := occRef{abs: int32(i), pos: int32(-i)}
		tab.Put(k, ref)
		want[k] = ref
		if i&(i+1) == 0 {
			checkOccTable(t, &tab, want)
		}
	}
	checkOccTable(t, &tab, want)
	size := len(tab.slots)
	for k := range want {
		if _, ok := tab.Delete(k); !ok {
			t.Fatalf("Delete(%d) missed", k)
		}
		delete(want, k)
	}
	checkOccTable(t, &tab, want)
	if len(tab.slots) != size {
		t.Fatalf("deletes resized the table: %d -> %d slots", size, len(tab.slots))
	}
}

// FuzzOccTableAgainstMap is the fuzzing twin of TestOccTableAgainstMap:
// each 3-byte record is (op, key selector, reference).  Selectors below
// 16 pick from the int64 edges and a shared probe run; others are the
// selector itself, spread by a sign-extending shift.
func FuzzOccTableAgainstMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 6, 2, 2, 0, 0, 1, 6, 3})
	f.Add([]byte{0, 8, 1, 0, 9, 1, 0, 10, 1, 2, 8, 0, 1, 10, 4})
	f.Add([]byte{0, 200, 1, 0, 201, 1, 3, 0, 0, 0, 202, 1})
	keys := append([]PacketID{math.MinInt64, -1, 0, math.MaxInt64, 1, math.MinInt64 + 1, math.MaxInt64 - 1, -2},
		homedAt(0, 8)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab occTable
		want := map[PacketID]occRef{}
		for len(data) >= 3 {
			op, sel, v := data[0], data[1], data[2]
			data = data[3:]
			key := PacketID(int64(int8(sel)) << (sel % 57))
			if int(sel) < len(keys) {
				key = keys[sel]
			}
			occOp(t, &tab, want, op, key, occRef{abs: int32(v), pos: int32(op)<<8 | int32(v)})
		}
		checkOccTable(t, &tab, want)
	})
}
