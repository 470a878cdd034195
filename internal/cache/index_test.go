package cache

import (
	"testing"
)

// keysHoming returns n keys, ascending from 1, whose home slot in a table
// of size slots is want.
func keysHoming(slots, want, n int) []Addr {
	x := BlockIndex{}
	x.init(slots)
	var out []Addr
	for k := Addr(1); len(out) < n; k++ {
		if x.home(k) == want {
			out = append(out, k)
		}
	}
	return out
}

// slotOf returns the slot holding key, or -1.
func (x *BlockIndex) slotOf(key Addr) int {
	for i, s := range x.slots {
		if s.full && s.key == key {
			return i
		}
	}
	return -1
}

func TestBlockIndexBasics(t *testing.T) {
	x := NewBlockIndex(4)
	if _, ok := x.Get(0); ok {
		t.Fatal("empty index found key 0")
	}
	x.Put(0, 7)
	x.Put(42, -3)
	if v, ok := x.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0) = %d, %v; want 7, true", v, ok)
	}
	x.Put(42, 9) // overwrite
	if v, ok := x.Get(42); !ok || v != 9 || x.Len() != 2 {
		t.Fatalf("Get(42) = %d, %v, Len %d; want 9, true, 2", v, ok, x.Len())
	}
	if v, ok := x.Delete(0); !ok || v != 7 {
		t.Fatalf("Delete(0) = %d, %v; want 7, true", v, ok)
	}
	if _, ok := x.Delete(0); ok {
		t.Fatal("second Delete(0) found the key")
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
}

// TestBlockIndexDeleteShiftsAcrossWrap deletes the head of a probe run
// that wraps past the last slot: the run's later keys move back over the
// hole, across the wrap, except one already at its home, and the vacated
// slot is left empty (no tombstone).
func TestBlockIndexDeleteShiftsAcrossWrap(t *testing.T) {
	x := NewBlockIndex(4)
	if len(x.slots) != 8 {
		t.Fatalf("NewBlockIndex(4) has %d slots, want 8", len(x.slots))
	}
	last := keysHoming(8, 7, 3) // a, b, d home to the last slot
	a, b, d := last[0], last[1], last[2]
	c := keysHoming(8, 1, 1)[0] // c homes to slot 1
	x.Put(a, 1)                 // slot 7
	x.Put(b, 2)                 // slot 0, wrapped
	x.Put(c, 3)                 // slot 1, its home
	x.Put(d, 4)                 // slot 2, wrapped past c
	for key, slot := range map[Addr]int{a: 7, b: 0, c: 1, d: 2} {
		if got := x.slotOf(key); got != slot {
			t.Fatalf("before Delete: key %d in slot %d, want %d", key, got, slot)
		}
	}
	if v, ok := x.Delete(a); !ok || v != 1 {
		t.Fatalf("Delete(a) = %d, %v; want 1, true", v, ok)
	}
	for key, slot := range map[Addr]int{b: 7, c: 1, d: 0} {
		if got := x.slotOf(key); got != slot {
			t.Fatalf("after Delete: key %d in slot %d, want %d", key, got, slot)
		}
	}
	if x.slots[2].full {
		t.Fatal("slot 2 still full after its key shifted back")
	}
	for key, val := range map[Addr]int32{b: 2, c: 3, d: 4} {
		if v, ok := x.Get(key); !ok || v != val {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", key, v, ok, val)
		}
	}
	if _, ok := x.Get(a); ok || x.Len() != 3 {
		t.Fatalf("deleted key found or Len %d != 3", x.Len())
	}
}

// TestBlockIndexGrowth: an index built for a capacity holds that many keys
// without growing; one past half full doubles it, keeping every key.
func TestBlockIndexGrowth(t *testing.T) {
	for capacity := 0; capacity <= 300; capacity++ {
		x := NewBlockIndex(capacity)
		size := len(x.slots)
		if size < 2*capacity {
			t.Fatalf("NewBlockIndex(%d) has %d slots, want >= %d", capacity, size, 2*capacity)
		}
		for k := 0; k < capacity; k++ {
			x.Put(Addr(k)<<6, int32(k))
		}
		if len(x.slots) != size {
			t.Fatalf("NewBlockIndex(%d) grew from %d to %d slots at capacity", capacity, size, len(x.slots))
		}
	}
	x := NewBlockIndex(0)
	for k := 0; k < 1000; k++ {
		x.Put(Addr(k)*4096, int32(-k))
		if 2*x.Len() > len(x.slots) {
			t.Fatalf("%d keys in %d slots: more than half full", x.Len(), len(x.slots))
		}
	}
	if x.Len() != 1000 || len(x.slots) != 2048 {
		t.Fatalf("Len %d in %d slots, want 1000 in 2048", x.Len(), len(x.slots))
	}
	for k := 0; k < 1000; k++ {
		if v, ok := x.Get(Addr(k) * 4096); !ok || v != int32(-k) {
			t.Fatalf("after growth Get(%d) = %d, %v", k*4096, v, ok)
		}
	}
}

// TestBlockIndexSteadyStateAllocs: once sized, Put/Get/Delete allocate
// nothing.
func TestBlockIndexSteadyStateAllocs(t *testing.T) {
	x := NewBlockIndex(64)
	k := Addr(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			x.Put(k+Addr(i), int32(i))
		}
		for i := 0; i < 64; i++ {
			x.Get(k + Addr(i))
			x.Delete(k + Addr(i))
		}
		k += 64
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per fill/drain, want 0", allocs)
	}
}

// fuzzKeys is FuzzBlockIndex's key set: the zero key (empty slots hold key
// 0), keys sharing a home slot, and keys whose probe runs wrap past the
// last slot, both in the starting 8-slot table and after it grows to 16.
func fuzzKeys() []Addr {
	keys := []Addr{0}
	keys = append(keys, keysHoming(8, 7, 3)...)
	keys = append(keys, keysHoming(8, 0, 2)...)
	keys = append(keys, keysHoming(8, 6, 1)...)
	keys = append(keys, keysHoming(16, 15, 2)...)
	keys = append(keys, keysHoming(16, 0, 1)...)
	return keys
}

// FuzzBlockIndex applies a byte-decoded sequence of Put, Get and Delete
// operations both to a BlockIndex and to a Go map, and after every
// operation compares the results, Len, and Get of every key.
func FuzzBlockIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 1, 2, 1, 3})
	f.Add([]byte{0, 0, 0, 4, 0, 5, 0, 6, 0, 7, 2, 4, 2, 0, 1, 5})
	f.Add([]byte{3, 1, 6, 2, 9, 3, 12, 7, 15, 8, 18, 9, 21, 10, 2, 1, 5, 2, 8, 3})
	keys := fuzzKeys()
	f.Fuzz(func(t *testing.T, ops []byte) {
		x := NewBlockIndex(0)
		ref := map[Addr]int32{}
		for i := 0; i+1 < len(ops); i += 2 {
			key := keys[int(ops[i+1])%len(keys)]
			val := int32(ops[i]) - 128 + int32(i)
			switch ops[i] % 3 {
			case 0:
				x.Put(key, val)
				ref[key] = val
			case 1:
				got, ok := x.Get(key)
				want, wantOK := ref[key]
				if got != want || ok != wantOK {
					t.Fatalf("op %d Get(%d) = %d, %v; map has %d, %v", i/2, key, got, ok, want, wantOK)
				}
			case 2:
				got, ok := x.Delete(key)
				want, wantOK := ref[key]
				delete(ref, key)
				if got != want || ok != wantOK {
					t.Fatalf("op %d Delete(%d) = %d, %v; map had %d, %v", i/2, key, got, ok, want, wantOK)
				}
			}
			if x.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, map holds %d", i/2, x.Len(), len(ref))
			}
			for _, k := range keys {
				got, ok := x.Get(k)
				want, wantOK := ref[k]
				if got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%d) = %d, %v; map has %d, %v", i/2, k, got, ok, want, wantOK)
				}
			}
		}
	})
}
