package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	c := New("L2", 16384, 16)
	if c.NumSets() != 1024 || c.Ways() != 16 || c.Blocks() != 16384 {
		t.Fatalf("geometry: sets=%d ways=%d blocks=%d", c.NumSets(), c.Ways(), c.Blocks())
	}
}

func TestNewFullyAssociative(t *testing.T) {
	c := New("pc", 32, 0)
	if c.NumSets() != 1 || c.Ways() != 32 {
		t.Fatalf("fully associative: sets=%d ways=%d", c.NumSets(), c.Ways())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct{ blocks, ways int }{{100, 16}, {48, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.blocks, tc.ways)
				}
			}()
			New("bad", tc.blocks, tc.ways)
		}()
	}
}

func TestInsertPosDepth(t *testing.T) {
	// The paper's definitions for a 16-way set: LRU=0, LRU-4=floor(16/4),
	// MID=floor(16/2), MRU=15.
	cases := []struct {
		pos  InsertPos
		want int
	}{{PosLRU, 0}, {PosLRU4, 4}, {PosMID, 8}, {PosMRU, 15}}
	for _, tc := range cases {
		if got := tc.pos.Depth(16); got != tc.want {
			t.Errorf("%v.Depth(16) = %d, want %d", tc.pos, got, tc.want)
		}
	}
	if PosMID.Depth(4) != 2 || PosLRU4.Depth(4) != 1 {
		t.Errorf("4-way depths wrong: MID=%d LRU4=%d", PosMID.Depth(4), PosLRU4.Depth(4))
	}
}

func TestInsertPosString(t *testing.T) {
	want := map[InsertPos]string{PosLRU: "LRU", PosLRU4: "LRU-4", PosMID: "MID", PosMRU: "MRU"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

func TestParseInsertPos(t *testing.T) {
	for p := PosLRU; p < NumInsertPos; p++ {
		if got, ok := ParseInsertPos(p.String()); !ok || got != p {
			t.Errorf("ParseInsertPos(%q) = %v, %v; want %v, true", p.String(), got, ok, p)
		}
	}
	for _, name := range []string{"", "mru", "InsertPos(4)"} {
		if _, ok := ParseInsertPos(name); ok {
			t.Errorf("ParseInsertPos(%q) accepted", name)
		}
	}
}

func TestAccessHitMiss(t *testing.T) {
	c := New("t", 16, 4) // 4 sets of 4
	if c.Access(1) != nil {
		t.Fatal("access of empty cache hit")
	}
	c.Insert(1, PosMRU, false, false)
	if c.Access(1) == nil {
		t.Fatal("access after insert missed")
	}
	if c.Accesses() != 2 || c.Misses() != 1 {
		t.Fatalf("counters: accesses=%d misses=%d", c.Accesses(), c.Misses())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New("t", 4, 4) // one set
	var evicted []Addr
	c.OnEvict = func(ev Evicted) { evicted = append(evicted, ev.Block.Tag) }
	for b := Addr(0); b < 4; b++ {
		c.Insert(b*4, PosMRU, false, false) // same set (4 sets? no: 1 set)
	}
	// All four resident; insert a fifth evicts the LRU (block 0).
	c.Insert(16, PosMRU, false, false)
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted %v, want [0]", evicted)
	}
	// Touching block 4 protects it; next eviction is block 8.
	c.Access(4)
	c.Insert(20, PosMRU, false, false)
	if len(evicted) != 2 || evicted[1] != 8 {
		t.Fatalf("evicted %v, want [0 8]", evicted)
	}
}

func TestInsertAtDepths(t *testing.T) {
	c := New("t", 8, 8) // one 8-way set
	for b := Addr(0); b < 8; b++ {
		c.Insert(b, PosMRU, false, false)
	}
	// Stack LRU->MRU: 0..7. Insert 100 at MID (depth 4): evicts 0, then
	// the stack is 1,2,3,100,4,...? Eviction shifts everything down, then
	// 100 lands at index 4.
	c.Insert(100, PosMID, false, false)
	got := c.StackPositions(0)
	want := []Addr{1, 2, 3, 4, 100, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stack after MID insert = %v, want %v", got, want)
		}
	}
	// LRU insert goes to position 0.
	c.Insert(200, PosLRU, false, false)
	got = c.StackPositions(0)
	if got[0] != 200 {
		t.Fatalf("stack after LRU insert = %v, want 200 first", got)
	}
}

func TestInsertLRUEvictedFirst(t *testing.T) {
	// A block inserted at LRU is the first victim — the mechanism Dynamic
	// Insertion relies on to make junk prefetches evict themselves.
	c := New("t", 4, 4)
	c.Insert(1, PosMRU, false, false)
	c.Insert(2, PosMRU, false, false)
	c.Insert(3, PosMRU, false, false)
	c.Insert(9, PosLRU, true, false)
	var evicted []Addr
	c.OnEvict = func(ev Evicted) { evicted = append(evicted, ev.Block.Tag) }
	c.Insert(4, PosMRU, false, false)
	if len(evicted) != 1 || evicted[0] != 9 {
		t.Fatalf("evicted %v, want the LRU-inserted prefetch 9", evicted)
	}
}

func TestDuplicateInsertMergesState(t *testing.T) {
	c := New("t", 4, 4)
	c.Insert(1, PosMRU, false, false)
	if _, evicted := c.Insert(1, PosLRU, true, true); evicted {
		t.Fatal("duplicate insert evicted")
	}
	b := c.Lookup(1)
	if b == nil || !b.Pref || !b.Dirty {
		t.Fatalf("duplicate insert did not merge flags: %+v", b)
	}
	if got := len(c.StackPositions(0)); got != 1 {
		t.Fatalf("duplicate insert created %d entries", got)
	}
}

func TestEvictedByPrefetchFlag(t *testing.T) {
	c := New("t", 2, 2)
	c.Insert(0, PosMRU, false, false)
	c.Insert(2, PosMRU, false, false)
	var byPref []bool
	c.OnEvict = func(ev Evicted) { byPref = append(byPref, ev.ByPrefetch) }
	c.Insert(4, PosMRU, true, false)  // prefetch fill evicts
	c.Insert(6, PosMRU, false, false) // demand fill evicts
	if len(byPref) != 2 || !byPref[0] || byPref[1] {
		t.Fatalf("ByPrefetch flags = %v, want [true false]", byPref)
	}
}

func TestInvalidateAndSetDirty(t *testing.T) {
	c := New("t", 4, 4)
	c.Insert(7, PosMRU, false, false)
	if !c.SetDirty(7) {
		t.Fatal("SetDirty missed resident block")
	}
	b, ok := c.Invalidate(7)
	if !ok || !b.Dirty {
		t.Fatalf("Invalidate = %+v, %v", b, ok)
	}
	if c.Contains(7) {
		t.Fatal("block still resident after Invalidate")
	}
	if c.SetDirty(7) {
		t.Fatal("SetDirty hit after Invalidate")
	}
	if _, ok := c.Invalidate(7); ok {
		t.Fatal("double Invalidate reported a block")
	}
}

func TestPrefBitLifecycle(t *testing.T) {
	c := New("t", 4, 4)
	c.Insert(1, PosMRU, true, false)
	if b := c.Lookup(1); b == nil || !b.Pref {
		t.Fatalf("prefetch fill = %+v, want the pref-bit set", b)
	}
	b := c.Access(1)
	if b == nil || !b.Pref {
		t.Fatal("prefetched block lost its pref bit before first use")
	}
	b.Pref = false // the hierarchy clears it on first demand use
	if b := c.Lookup(1); b == nil || b.Pref {
		t.Fatalf("after first use = %+v, want the pref-bit clear", b)
	}
}

// TestStackInvariants drives random operations and checks structural
// invariants: no duplicate tags in a set, size bounded by ways, and every
// inserted block findable until evicted.
func TestStackInvariants(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("q", 64, 4)
		resident := make(map[Addr]bool)
		c.OnEvict = func(ev Evicted) { delete(resident, ev.Block.Tag) }
		for _, op := range ops {
			block := Addr(rng.Intn(128))
			switch op % 4 {
			case 0:
				c.Insert(block, InsertPos(rng.Intn(4)), rng.Intn(2) == 0, false)
				resident[block] = true
			case 1:
				hit := c.Access(block) != nil
				if hit != resident[block] {
					return false
				}
			case 2:
				if c.SetDirty(block) != resident[block] {
					return false
				}
			case 3:
				if _, ok := c.Invalidate(block); ok != resident[block] {
					return false
				}
				delete(resident, block)
			}
		}
		// Structural check: every set duplicate-free and bounded.
		for s := 0; s < c.NumSets(); s++ {
			tags := c.StackPositions(s)
			if len(tags) > c.Ways() {
				return false
			}
			seen := make(map[Addr]bool)
			for _, tag := range tags {
				if seen[tag] || int(tag)%c.NumSets() != s {
					return false
				}
				seen[tag] = true
			}
		}
		// Consistency with the shadow model.
		for b := range resident {
			if !c.Contains(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNewAllocsIndependentOfSets pins the flat tag store: building a cache
// allocates the same objects whatever its set count.
func TestNewAllocsIndependentOfSets(t *testing.T) {
	one := testing.AllocsPerRun(20, func() { New("one", 4, 4) })
	many := testing.AllocsPerRun(20, func() { New("many", 4096, 4) })
	if one != many {
		t.Fatalf("New allocates %v objects for 1 set, %v for 1,024 sets", one, many)
	}
}
