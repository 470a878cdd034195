package cache

// BlockIndex is an open-addressed hash index from a block address (or any
// uint64 key) to an int32, built for the per-access bookkeeping of the
// memory path: the MSHR file, the L1-miss table, the prefetch-queue
// filter and the GHB zone table. Its slots are one dense array, so a
// lookup is one multiply and, on a short probe run, one cache line.
//
//   - A key's home slot is the top bits of key × 2^64/φ (Fibonacci
//     hashing), which spreads the strided and clustered block addresses a
//     workload produces across the table.
//   - Collisions probe linearly to the next slot.
//   - Delete shifts the rest of the probe run back over the hole, so the
//     table holds no tombstones and a lookup's probe stops at the first
//     empty slot.
//   - The table doubles once it is more than half full. An owner with a
//     fixed capacity builds its index with NewBlockIndex(capacity), which
//     sizes the table so that it never grows; an owner without one grows
//     it during warm-up, after which Put allocates nothing.
//
// Nothing ranges over a BlockIndex, so no result can depend on its slot
// order. Copying a BlockIndex shares its slots: keep one value per owner
// and use it through a pointer.
type BlockIndex struct {
	slots []indexSlot
	n     int
	shift uint // 64 - log2(len(slots))
}

type indexSlot struct {
	key  Addr
	val  int32
	full bool
}

// fibonacci is 2^64/φ rounded to odd: multiplying by it and keeping the
// top bits is Knuth's multiplicative (Fibonacci) hash.
const fibonacci = 0x9E3779B97F4A7C15

// minIndexSlots is the smallest table NewBlockIndex builds.
const minIndexSlots = 8

// NewBlockIndex returns an empty index that holds capacity keys without
// growing: its table has at least 2×capacity slots.
func NewBlockIndex(capacity int) BlockIndex {
	size := minIndexSlots
	for size < 2*capacity {
		size *= 2
	}
	var x BlockIndex
	x.init(size)
	return x
}

func (x *BlockIndex) init(size int) {
	x.slots = make([]indexSlot, size)
	x.n = 0
	x.shift = 64
	for v := size; v > 1; v >>= 1 {
		x.shift--
	}
}

// home returns key's home slot. Masking the shift, which is at most 61,
// spares the compiler's check for shifts of 64 and more.
func (x *BlockIndex) home(key Addr) int {
	return int((key * fibonacci) >> (x.shift & 63))
}

// next returns the slot after i, wrapping past the last.
func (x *BlockIndex) next(i int) int { return (i + 1) & (len(x.slots) - 1) }

// Len returns the number of keys held.
func (x *BlockIndex) Len() int { return x.n }

// find returns the slot holding key and true, or the empty slot that ends
// key's probe run and false.
func (x *BlockIndex) find(key Addr) (int, bool) {
	i := x.home(key)
	for x.slots[i].full {
		if x.slots[i].key == key {
			return i, true
		}
		i = x.next(i)
	}
	return i, false
}

// Get returns key's value and true, or 0 and false when key is absent.
func (x *BlockIndex) Get(key Addr) (int32, bool) {
	i, ok := x.find(key)
	return x.slots[i].val, ok // an empty slot's val is 0
}

// Put sets key's value, inserting key when it is absent.
func (x *BlockIndex) Put(key Addr, val int32) {
	i, ok := x.find(key)
	x.slots[i] = indexSlot{key: key, val: val, full: true}
	if ok {
		return
	}
	x.n++
	if 2*x.n > len(x.slots) {
		x.grow()
	}
}

// grow doubles the table and re-inserts every key.
func (x *BlockIndex) grow() {
	old := x.slots
	x.init(2 * len(old))
	for _, s := range old {
		if s.full {
			x.Put(s.key, s.val)
		}
	}
}

// Delete removes key, returning its value and true, or 0 and false when
// key is absent. Every later slot of key's probe run whose home lies at
// or before the hole moves back into it, and the hole moves on to the
// vacated slot, until the run ends at an empty slot.
func (x *BlockIndex) Delete(key Addr) (int32, bool) {
	i, ok := x.find(key)
	if !ok {
		return 0, false
	}
	val := x.slots[i].val
	mask := len(x.slots) - 1
	for j := x.next(i); x.slots[j].full; j = x.next(j) {
		// The key at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: it is at least as far from its home as
		// the hole is from j.
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
	return val, true
}
