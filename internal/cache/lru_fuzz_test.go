package cache

import (
	"slices"
	"testing"
)

// refCache is the tag store as it was before the flat block array: one
// slice per set, least recently used first, grown by append and shortened
// by reslicing, with the same stack shifts.
type refCache struct {
	ways             int
	setMask          uint64
	sets             [][]Block
	onEvict          func(Evicted)
	accesses, misses uint64
}

func newRefCache(totalBlocks, ways int) *refCache {
	if ways <= 0 || ways > totalBlocks {
		ways = totalBlocks
	}
	r := &refCache{ways: ways, setMask: uint64(totalBlocks/ways - 1), sets: make([][]Block, totalBlocks/ways)}
	for i := range r.sets {
		r.sets[i] = make([]Block, 0, ways)
	}
	return r
}

func (r *refCache) set(block Addr) *[]Block { return &r.sets[block&r.setMask] }

func refFind(s []Block, block Addr) int {
	for i := range s {
		if s[i].Tag == block {
			return i
		}
	}
	return -1
}

func (r *refCache) Lookup(block Addr) *Block {
	s := *r.set(block)
	if i := refFind(s, block); i >= 0 {
		return &s[i]
	}
	return nil
}

func (r *refCache) Access(block Addr) *Block {
	r.accesses++
	s := *r.set(block)
	i := refFind(s, block)
	if i < 0 {
		r.misses++
		return nil
	}
	b := s[i]
	copy(s[i:], s[i+1:])
	s[len(s)-1] = b
	return &s[len(s)-1]
}

func (r *refCache) Insert(block Addr, pos InsertPos, pref, dirty bool) (ev Evicted, evicted bool) {
	s := r.set(block)
	if i := refFind(*s, block); i >= 0 {
		(*s)[i].Dirty = (*s)[i].Dirty || dirty
		(*s)[i].Pref = (*s)[i].Pref || pref
		return Evicted{}, false
	}
	if len(*s) == r.ways {
		victim := (*s)[0]
		copy(*s, (*s)[1:])
		*s = (*s)[:len(*s)-1]
		ev, evicted = Evicted{Block: victim, ByPrefetch: pref}, true
		if r.onEvict != nil {
			r.onEvict(ev)
		}
	}
	depth := pos.Depth(r.ways)
	if depth > len(*s) {
		depth = len(*s)
	}
	nb := Block{Tag: block, Dirty: dirty, Pref: pref, DemandFill: !pref}
	*s = append(*s, Block{})
	copy((*s)[depth+1:], (*s)[depth:])
	(*s)[depth] = nb
	return ev, evicted
}

func (r *refCache) Invalidate(block Addr) (Block, bool) {
	s := r.set(block)
	i := refFind(*s, block)
	if i < 0 {
		return Block{}, false
	}
	b := (*s)[i]
	copy((*s)[i:], (*s)[i+1:])
	*s = (*s)[:len(*s)-1]
	return b, true
}

func (r *refCache) SetDirty(block Addr) bool {
	if b := r.Lookup(block); b != nil {
		b.Dirty = true
		return true
	}
	return false
}

// blockOrNil copies a returned block, so two caches' answers compare by
// value.
func blockOrNil(b *Block) (Block, bool) {
	if b == nil {
		return Block{}, false
	}
	return *b, true
}

// lruGeometries are FuzzCacheLRU's caches as (total blocks, ways): one
// fully associative set, and 1-, 4- and 16-way sets.
var lruGeometries = [][2]int{{8, 0}, {8, 1}, {16, 4}, {32, 16}}

// FuzzCacheLRU drives a Cache and refCache with the same calls — Access
// (optionally clearing the returned pref-bit, as a first demand use
// does), Lookup, Insert at each position with pref and dirty bits,
// Invalidate and SetDirty — and requires equal return values, eviction
// hook calls (with the set as the hook sees it), LRU stacks and access
// counters after every call.
func FuzzCacheLRU(f *testing.F) {
	// Fill one 16-way set past capacity at every insertion depth.
	f.Add([]byte{3, 2, 0, 0, 2, 4, 5, 2, 8, 10, 2, 12, 7, 2, 1, 11, 2, 6, 13, 2, 2, 2, 0, 1})
	// Prefetch fills, a demand use clearing the pref-bit, then evictions.
	f.Add([]byte{2, 2, 1, 7, 2, 17, 6, 2, 33, 5, 1, 1, 0, 1, 1, 2, 49, 0, 2, 65, 3, 3, 17, 0, 4, 33, 0})
	// Direct-mapped conflicts with dirty victims and SetDirty.
	f.Add([]byte{1, 2, 0, 8, 2, 8, 9, 4, 0, 0, 2, 16, 0, 5, 8, 0, 3, 8, 0})
	// The fully associative set under LRU and MRU fills.
	f.Add([]byte{0, 2, 1, 3, 2, 2, 3, 2, 3, 0, 2, 4, 3, 2, 5, 3, 2, 6, 3, 2, 7, 3, 2, 8, 3, 2, 9, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geo := lruGeometries[int(data[0])%len(lruGeometries)]
		got, want := New("fuzz", geo[0], geo[1]), newRefCache(geo[0], geo[1])
		// Each hook call records the victim and how many blocks its set
		// holds while the hook runs: the victim has already left.
		type evictCall struct {
			ev   Evicted
			held int
		}
		var gotEv, wantEv []evictCall
		got.OnEvict = func(ev Evicted) {
			gotEv = append(gotEv, evictCall{ev, len(got.StackPositions(int(ev.Block.Tag & got.setMask)))})
		}
		want.onEvict = func(ev Evicted) { wantEv = append(wantEv, evictCall{ev, len(*want.set(ev.Block.Tag))}) }
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			op, block, arg := data[0]%6, Addr(data[1]%64), data[2]
			var g, w any
			switch op {
			case 0:
				gb, gok := blockOrNil(got.Lookup(block))
				wb, wok := blockOrNil(want.Lookup(block))
				g, w = [2]any{gb, gok}, [2]any{wb, wok}
			case 1:
				gp, wp := got.Access(block), want.Access(block)
				gb, gok := blockOrNil(gp)
				wb, wok := blockOrNil(wp)
				g, w = [2]any{gb, gok}, [2]any{wb, wok}
				if arg&1 == 1 && gp != nil && wp != nil {
					gp.Pref, wp.Pref = false, false
				}
			case 2:
				pos, pref, dirty := InsertPos(arg%4), arg&4 != 0, arg&8 != 0
				gev, gok := got.Insert(block, pos, pref, dirty)
				wev, wok := want.Insert(block, pos, pref, dirty)
				g, w = [2]any{gev, gok}, [2]any{wev, wok}
			case 3:
				gb, gok := got.Invalidate(block)
				wb, wok := want.Invalidate(block)
				g, w = [2]any{gb, gok}, [2]any{wb, wok}
			case 4:
				g, w = got.SetDirty(block), want.SetDirty(block)
			case 5:
				g, w = got.Contains(block), want.Lookup(block) != nil
			}
			if g != w {
				t.Fatalf("op %d on block %d (arg %#x) = %v, reference %v", op, block, arg, g, w)
			}
			if !slices.Equal(gotEv, wantEv) {
				t.Fatalf("evictions %v, reference %v", gotEv, wantEv)
			}
			for s := range want.sets {
				if gs := got.resident(s); !slices.Equal(gs, want.sets[s]) {
					t.Fatalf("set %d = %+v, reference %+v", s, gs, want.sets[s])
				}
				var tags []Addr
				for _, b := range want.sets[s] {
					tags = append(tags, b.Tag)
				}
				if g := got.StackPositions(s); !slices.Equal(g, tags) {
					t.Fatalf("StackPositions(%d) = %v, reference %v", s, g, tags)
				}
			}
			if got.Accesses() != want.accesses || got.Misses() != want.misses {
				t.Fatalf("accesses/misses %d/%d, reference %d/%d",
					got.Accesses(), got.Misses(), want.accesses, want.misses)
			}
		}
	})
}
