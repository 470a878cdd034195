package sim

import (
	"context"
	"testing"

	"fdpsim/internal/cache"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/stats"
)

// rig wires a one-core loop with no CPU for white-box tests: the rig
// registers itself as the hierarchy's client, tracking load completions
// by sequence number, and steps the loop by hand.
type rig struct {
	l    *loop
	h    *hierarchy
	ctr  *stats.Counters
	id   int32
	seq  uint64
	done map[uint64]*bool
}

func newRig(mutate func(*Config)) *rig {
	cfg := Default()
	cfg.Workload = "seqstream" // unused: we drive Access directly
	if mutate != nil {
		mutate(&cfg)
	}
	l := newLoop(context.Background(), cfg)
	r := &rig{l: l, h: l.nodes[0].h, ctr: &l.nodes[0].ctr, done: map[uint64]*bool{}}
	r.id = r.h.addClient(r)
	return r
}

// CompleteLoad implements memClient.
func (r *rig) CompleteLoad(robIdx int32, seq uint64) {
	if d, ok := r.done[seq]; ok {
		*d = true
	}
}

// CompleteFetch implements memClient.
func (r *rig) CompleteFetch() {}

// step advances n cycles.
func (r *rig) step(n int) {
	for end := r.l.cycle + uint64(n); r.l.cycle < end; {
		r.l.step(end)
		r.l.intervalClosed = false
	}
}

// load issues a demand load for a byte address, returning a *bool that
// flips when the data arrives.
func (r *rig) load(addr uint64) *bool {
	done := new(bool)
	r.seq++
	r.done[r.seq] = done
	r.h.Access(r.id, addr, 0x400000, false, 0, r.seq)
	return done
}

func TestHierarchyL1Hit(t *testing.T) {
	r := newRig(nil)
	r.step(1)
	d1 := r.load(64)
	r.step(3000) // let the miss complete
	if !*d1 {
		t.Fatal("first access never completed")
	}
	d2 := r.load(64)
	r.step(3) // L1 latency is 2
	if !*d2 {
		t.Fatal("L1 hit not completed within latency")
	}
	if r.ctr.L1Misses != 1 {
		t.Fatalf("L1 misses = %d, want 1", r.ctr.L1Misses)
	}
}

func TestHierarchyL1MergesSameBlock(t *testing.T) {
	r := newRig(nil)
	r.step(1)
	d1 := r.load(64)
	d2 := r.load(72) // same block
	r.step(3000)
	if !*d1 || !*d2 {
		t.Fatal("merged requesters not both completed")
	}
	if r.ctr.L2DemandAccesses != 1 {
		t.Fatalf("L2 accesses = %d, want 1 (merged at L1)", r.ctr.L2DemandAccesses)
	}
	if r.ctr.BusReads != 1 {
		t.Fatalf("bus reads = %d, want 1", r.ctr.BusReads)
	}
}

// TestHierarchyL1MissJoinAsymmetry pins how a miss joined from the other
// L1 side fills: a fetch that joins a data miss fills the L1I as well, but
// a load that joins a fetch-only miss completes without filling the L1D.
func TestHierarchyL1MissJoinAsymmetry(t *testing.T) {
	for _, fetchFirst := range []bool{false, true} {
		r := newRig(nil)
		r.step(1)
		const addr = 0x20000
		block := cache.Addr(addr >> r.h.cfg.BlockShift)
		var done *bool
		if fetchFirst {
			r.h.Fetch(r.id, addr)
			done = r.load(addr)
		} else {
			done = r.load(addr)
			r.h.Fetch(r.id, addr)
		}
		r.step(3000)
		if !*done {
			t.Fatalf("fetchFirst=%v: joined load never completed", fetchFirst)
		}
		if !r.h.l1i.Contains(block) {
			t.Errorf("fetchFirst=%v: block not in the L1I", fetchFirst)
		}
		if got := r.h.l1.Contains(block); got == fetchFirst {
			t.Errorf("fetchFirst=%v: block in the L1D = %v, want %v", fetchFirst, got, !fetchFirst)
		}
	}
}

func TestHierarchyLatePrefetchProtocol(t *testing.T) {
	// Inject a prefetch, then demand the same block while it is in
	// flight: late-total and used-total must both increment, and the
	// request must be promoted to demand priority.
	r := newRig(nil)
	r.step(1)
	r.h.enqueuePrefetch(100)
	r.step(5) // drain into MSHR + bus queue
	if r.h.mshr.Lookup(100) == nil {
		t.Fatal("prefetch did not allocate an MSHR")
	}
	done := r.load(100 << 6)
	r.step(1)
	if r.ctr.PrefLate != 1 || r.ctr.PrefUsed != 1 {
		t.Fatalf("late=%d used=%d, want 1,1", r.ctr.PrefLate, r.ctr.PrefUsed)
	}
	r.step(3000)
	if !*done {
		t.Fatal("merged demand never completed")
	}
	// The block was consumed at fill: it must not carry a pref bit.
	if b := r.h.l2.Lookup(100); b == nil || b.Pref {
		t.Fatalf("late-prefetched block state wrong: %+v", b)
	}
}

func TestHierarchyTimelyPrefetchHit(t *testing.T) {
	r := newRig(nil)
	r.step(1)
	r.h.enqueuePrefetch(200)
	r.step(3000) // prefetch fills the L2
	if r.ctr.PrefetchFilled != 1 {
		t.Fatalf("prefetch filled = %d", r.ctr.PrefetchFilled)
	}
	if b := r.h.l2.Lookup(200); b == nil || !b.Pref {
		t.Fatal("prefetched block missing or unmarked")
	}
	done := r.load(200 << 6)
	r.step(20)
	if !*done {
		t.Fatal("demand on prefetched block did not complete at L2-hit latency")
	}
	if r.ctr.PrefUsed != 1 || r.ctr.PrefLate != 0 {
		t.Fatalf("used=%d late=%d, want 1,0", r.ctr.PrefUsed, r.ctr.PrefLate)
	}
	if b := r.h.l2.Lookup(200); b.Pref {
		t.Fatal("pref bit not cleared on first demand use")
	}
}

func TestHierarchyPrefetchDedup(t *testing.T) {
	r := newRig(nil)
	r.step(1)
	r.h.enqueuePrefetch(300)
	r.h.enqueuePrefetch(300) // duplicate in queue
	if r.h.prefQ.len() != 1 {
		t.Fatalf("queue holds %d entries, want 1", r.h.prefQ.len())
	}
	r.step(5)
	r.h.enqueuePrefetch(300) // already in MSHR
	if r.h.prefQ.len() != 0 {
		t.Fatal("in-flight block re-queued")
	}
	r.step(3000)
	r.h.enqueuePrefetch(300) // already in L2
	r.step(5)
	if r.ctr.PrefSent != 1 {
		t.Fatalf("sent = %d, want 1", r.ctr.PrefSent)
	}
}

func TestHierarchyStoreDirtiesAndWritesBack(t *testing.T) {
	r := newRig(func(c *Config) {
		c.L1Blocks = 8
		c.L1Ways = 2
		c.L2Blocks = 16
		c.L2Ways = 2
	})
	r.step(1)
	r.h.Access(r.id, 0, 1, true, -1, 0) // store to block 0
	r.step(3000)
	// Evict block 0 from L1 by filling its set (set count = 4).
	for i := uint64(1); i <= 2; i++ {
		r.load(i * 4 * 64) // same L1 set as block 0
		r.step(3000)
	}
	// Block 0's dirty data must now be in the L2 (or written back).
	b := r.h.l2.Lookup(0)
	if b == nil || !b.Dirty {
		t.Fatalf("dirty L1 victim not recorded in L2: %+v", b)
	}
	// Now force it out of the tiny L2 and expect bus writeback traffic.
	for i := uint64(1); i <= 4; i++ {
		r.load(i * 8 * 64) // same L2 set as block 0
		r.step(3000)
	}
	if r.ctr.BusWritebacks == 0 {
		t.Fatal("no writeback traffic after evicting a dirty L2 block")
	}
}

func TestHierarchyPollutionEndToEnd(t *testing.T) {
	r := newRig(func(c *Config) {
		c.L2Blocks = 16
		c.L2Ways = 2
	})
	r.step(1)
	// Fill both ways of L2 set 0 with demand blocks.
	d1 := r.load(0)
	r.step(3000)
	d2 := r.load(8 << 6)
	r.step(3000)
	if !*d1 || !*d2 {
		t.Fatal("setup loads incomplete")
	}
	// A prefetch into the same set evicts the LRU demand block (block 0).
	r.h.enqueuePrefetch(16)
	r.step(3000)
	if r.h.l2.Lookup(0) != nil {
		t.Fatal("prefetch did not evict the demand block")
	}
	// Re-demanding block 0 is a pollution miss (drop the L1 copy so the
	// demand reaches the L2).
	r.h.l1.Invalidate(0)
	r.load(0)
	r.step(1)
	if r.ctr.PollutionHits != 1 {
		t.Fatalf("pollution hits = %d, want 1", r.ctr.PollutionHits)
	}
}

func TestHierarchyObserveSeesHitsAndMisses(t *testing.T) {
	var events []prefetch.Event
	rec := &recordingPrefetcher{sink: &events}
	r := newRig(func(c *Config) {
		c.Prefetcher = PrefCustom
		c.Custom = rec
		c.StaticLevel = 5
	})
	r.step(1)
	r.load(64)
	r.step(3000)
	r.load(64) // L1 hit: no L2 event
	r.step(10)
	r.h.l1.Invalidate(1)
	r.load(64) // L1 miss, L2 hit
	r.step(10)
	if len(events) != 2 {
		t.Fatalf("prefetcher saw %d events, want 2", len(events))
	}
	if !events[0].Miss || events[1].Miss {
		t.Fatalf("event miss flags wrong: %+v", events)
	}
}

type recordingPrefetcher struct {
	sink  *[]prefetch.Event
	level int
}

func (p *recordingPrefetcher) Name() string       { return "recorder" }
func (p *recordingPrefetcher) SetLevel(level int) { p.level = level }
func (p *recordingPrefetcher) Level() int         { return p.level }
func (p *recordingPrefetcher) Observe(ev *prefetch.Event, out []uint64) []uint64 {
	*p.sink = append(*p.sink, *ev)
	return out
}

func TestHierarchyPrefetchCacheMigration(t *testing.T) {
	r := newRig(func(c *Config) {
		c.PrefCacheBlocks = 32
		c.PrefCacheWays = 0
	})
	r.step(1)
	r.h.enqueuePrefetch(500)
	r.step(3000)
	if !r.h.pc.Contains(500) {
		t.Fatal("prefetch did not fill the prefetch cache")
	}
	if r.h.l2.Contains(500) {
		t.Fatal("prefetch leaked into the L2 despite the prefetch cache")
	}
	done := r.load(500 << 6)
	r.step(20)
	if !*done {
		t.Fatal("prefetch-cache hit did not complete quickly")
	}
	if r.h.pc.Contains(500) || !r.h.l2.Contains(500) {
		t.Fatal("demand hit did not migrate the block to the L2")
	}
	if r.ctr.PrefCacheHits != 1 || r.ctr.PrefUsed != 1 {
		t.Fatalf("hits=%d used=%d", r.ctr.PrefCacheHits, r.ctr.PrefUsed)
	}
}

func TestHierarchyUsefulEvictionCounting(t *testing.T) {
	r := newRig(func(c *Config) {
		c.L2Blocks = 4
		c.L2Ways = 2
	})
	r.step(1)
	for i := uint64(0); i < 4; i++ {
		r.load(i * 2 * 64) // all map to set 0
		r.step(3000)
	}
	// Two of the four demand fills evicted earlier demand blocks.
	if r.ctr.UsefulEvicted != 2 {
		t.Fatalf("useful evictions = %d, want 2", r.ctr.UsefulEvicted)
	}
}

func TestInsertPosPlumbing(t *testing.T) {
	// A static LRU insertion policy must place prefetch fills at the LRU
	// position of the set.
	r := newRig(func(c *Config) {
		c.L2Blocks = 16
		c.L2Ways = 4
		c.FDP.StaticInsertion = cache.PosLRU
	})
	r.step(1)
	for i := uint64(0); i < 3; i++ {
		r.load(i * 4 * 64)
		r.step(3000)
	}
	r.h.enqueuePrefetch(12)
	r.step(3000)
	got := r.h.l2.StackPositions(0)
	if len(got) != 4 || got[0] != 12 {
		t.Fatalf("stack = %v, want prefetched block 12 at LRU", got)
	}
}
