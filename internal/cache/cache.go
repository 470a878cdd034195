// Package cache implements the set-associative cache models used by the
// simulator: true-LRU stacks with arbitrary insertion depth (needed for the
// paper's MID/LRU-4/LRU prefetch insertion policies), per-block pref-bits
// (the FDP accuracy mechanism), dirty bits for writeback traffic, and the
// L2 miss-status holding registers (MSHRs) with pref-bits for lateness
// detection.
package cache

import "fmt"

// Addr is a cache-block address: the byte address shifted right by the
// block-offset bits. All structures in this package operate on block
// addresses; the owner performs the shift once at the edge.
type Addr = uint64

// InsertPos names a depth in a set's LRU stack at which a filled block is
// inserted. The paper defines, for an n-way set: MID = floor(n/2)-th
// least-recently-used position, LRU-4 = floor(n/4)-th, LRU = position 0,
// MRU = position n-1.
type InsertPos int

// Insertion positions, least- to most-recently-used. NumInsertPos bounds
// the enum for callers that index per-position tables (e.g. the service's
// insertion-policy counters).
const (
	PosLRU InsertPos = iota
	PosLRU4
	PosMID
	PosMRU
	NumInsertPos
)

// String returns the paper's name for the position.
func (p InsertPos) String() string {
	switch p {
	case PosLRU:
		return "LRU"
	case PosLRU4:
		return "LRU-4"
	case PosMID:
		return "MID"
	case PosMRU:
		return "MRU"
	}
	return fmt.Sprintf("InsertPos(%d)", int(p))
}

// ParseInsertPos is the inverse of String: it returns the position the
// paper's name spells, or PosLRU and false for any other string.
func ParseInsertPos(name string) (InsertPos, bool) {
	for p := PosLRU; p < NumInsertPos; p++ {
		if p.String() == name {
			return p, true
		}
	}
	return PosLRU, false
}

// Depth returns the LRU-stack index (0 = LRU end) this position maps to in
// a cache with the given associativity.
func (p InsertPos) Depth(ways int) int {
	switch p {
	case PosLRU:
		return 0
	case PosLRU4:
		return ways / 4
	case PosMID:
		return ways / 2
	default:
		return ways - 1
	}
}

// Block is one cache line's tag-store state. A cache holds only resident
// blocks, so a Block needs no valid bit.
type Block struct {
	Tag   Addr // full block address (serves as the tag; sets re-derive index)
	Dirty bool
	// Pref is the paper's pref-bit: set when the block is filled by a
	// prefetch, cleared the first time a demand request touches it.
	Pref bool
	// DemandFill records the fill's origin: true when the block was
	// brought in by a demand miss. The pollution filter only tracks
	// demand-filled victims (Section 3.1.3), so this must survive the
	// pref-bit being cleared on first use.
	DemandFill bool
}

// EvictionInfo describes a block displaced by an insertion, delivered to
// the cache's eviction hook.
type Evicted struct {
	Block Block
	// ByPrefetch is true when the incoming fill that displaced this block
	// was a prefetch — the trigger for the pollution filter.
	ByPrefetch bool
}

// Cache is a set-associative, true-LRU cache model. It is a pure storage
// and replacement model: latencies, ports and queueing belong to the owner.
type Cache struct {
	name    string
	ways    int
	numSets int
	setMask uint64
	// blocks is the flat tag store: set s owns blocks[s*ways:(s+1)*ways],
	// of which the first fill[s] are resident, least recently used first.
	blocks []Block
	fill   []int32
	// OnEvict, optional, is called for every eviction, after the victim
	// has left its set. It must not modify this cache.
	OnEvict  func(ev Evicted)
	accesses uint64
	misses   uint64
}

// New constructs a cache holding totalBlocks blocks with the given
// associativity. totalBlocks must be a multiple of ways and the resulting
// set count must be a power of two. A ways value of 0 requests a fully
// associative cache (one set).
func New(name string, totalBlocks, ways int) *Cache {
	if ways <= 0 || ways > totalBlocks {
		ways = totalBlocks
	}
	numSets := totalBlocks / ways
	if numSets*ways != totalBlocks {
		panic(fmt.Sprintf("cache %s: %d blocks not divisible by %d ways", name, totalBlocks, ways))
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, numSets))
	}
	return &Cache{
		name:    name,
		ways:    ways,
		numSets: numSets,
		setMask: uint64(numSets - 1),
		blocks:  make([]Block, totalBlocks),
		fill:    make([]int32, numSets),
	}
}

// Name returns the label the cache was constructed with.
func (c *Cache) Name() string { return c.name }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Blocks returns the total block capacity.
func (c *Cache) Blocks() int { return c.numSets * c.ways }

// stack returns the index of block's set and the set's resident blocks.
func (c *Cache) stack(block Addr) (int, []Block) {
	si := int(block & c.setMask)
	return si, c.resident(si)
}

// resident returns set si's resident blocks, least recently used first.
// The slice's capacity ends at the set's last way, so a fill can extend
// it in place.
func (c *Cache) resident(si int) []Block {
	base := si * c.ways
	return c.blocks[base : base+int(c.fill[si]) : base+c.ways]
}

// find returns the stack index of block in s, or -1.
func find(s []Block, block Addr) int {
	for i := range s {
		if s[i].Tag == block {
			return i
		}
	}
	return -1
}

// Lookup probes for the block without changing replacement state. It
// returns a pointer into the set that is invalidated by the next mutating
// call, so callers must consume it immediately.
func (c *Cache) Lookup(block Addr) *Block {
	_, s := c.stack(block)
	if i := find(s, block); i >= 0 {
		return &s[i]
	}
	return nil
}

// Contains reports whether the block is resident.
func (c *Cache) Contains(block Addr) bool { return c.Lookup(block) != nil }

// Access performs a demand reference: on a hit the block is promoted to
// MRU and returned (its Pref bit is left for the caller to inspect and
// clear); on a miss nil is returned. Hit/miss statistics are updated.
func (c *Cache) Access(block Addr) *Block {
	c.accesses++
	_, s := c.stack(block)
	i := find(s, block)
	if i < 0 {
		c.misses++
		return nil
	}
	// Promote to MRU: move to the end of the stack.
	b := s[i]
	copy(s[i:], s[i+1:])
	s[len(s)-1] = b
	return &s[len(s)-1]
}

// Insert fills the block at the given LRU-stack position, evicting the LRU
// block if the set is full. The eviction hook fires before the new block is
// placed. If the block is already resident, its state is updated in place
// (pref/dirty are ORed in) without reordering the stack, and no eviction
// occurs. Insert returns the evicted block by value (evicted reports
// whether there was one), so the per-fill path stays allocation-free.
func (c *Cache) Insert(block Addr, pos InsertPos, pref, dirty bool) (ev Evicted, evicted bool) {
	si, s := c.stack(block)
	if i := find(s, block); i >= 0 {
		// Duplicate fill (e.g. prefetch raced a demand fill): merge state.
		s[i].Dirty = s[i].Dirty || dirty
		s[i].Pref = s[i].Pref || pref
		return Evicted{}, false
	}
	if len(s) == c.ways {
		victim := s[0]
		copy(s, s[1:])
		s = s[:len(s)-1]
		c.fill[si]--
		ev, evicted = Evicted{Block: victim, ByPrefetch: pref}, true
		if c.OnEvict != nil {
			c.OnEvict(ev)
		}
	}
	depth := pos.Depth(c.ways)
	if depth > len(s) {
		depth = len(s)
	}
	s = s[:len(s)+1]
	copy(s[depth+1:], s[depth:])
	s[depth] = Block{Tag: block, Dirty: dirty, Pref: pref, DemandFill: !pref}
	c.fill[si]++
	return ev, evicted
}

// Invalidate removes the block if present and returns its prior state.
func (c *Cache) Invalidate(block Addr) (Block, bool) {
	si, s := c.stack(block)
	i := find(s, block)
	if i < 0 {
		return Block{}, false
	}
	b := s[i]
	copy(s[i:], s[i+1:])
	c.fill[si]--
	return b, true
}

// SetDirty marks the block dirty if present, reporting whether it was found.
func (c *Cache) SetDirty(block Addr) bool {
	if b := c.Lookup(block); b != nil {
		b.Dirty = true
		return true
	}
	return false
}

// Accesses returns the number of demand references seen by Access.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of demand references that missed.
func (c *Cache) Misses() uint64 { return c.misses }

// StackPositions returns, for testing, the block addresses of a set ordered
// LRU to MRU. The set index is block&setMask of any resident address.
func (c *Cache) StackPositions(setIndex int) []Addr {
	s := c.resident(setIndex)
	out := make([]Addr, 0, len(s))
	for _, b := range s {
		out = append(out, b.Tag)
	}
	return out
}
