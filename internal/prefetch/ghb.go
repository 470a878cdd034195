package prefetch

// GHB C/DC (C-Zone Delta Correlation) prefetcher, the Section 5.7 target
// of FDP, after Nesbit & Smith's Global History Buffer design. L2 miss
// addresses are recorded in a circular global history buffer (GHB); an
// index table maps each C-Zone (a fixed-size region of the address space)
// to the most recent GHB entry for that zone, and entries in the same zone
// are chained with backward links. On each miss the chain yields the
// zone's recent miss-address history; the last two deltas form a
// correlation key that is searched in the older delta stream, and the
// deltas that followed the match are replayed to generate prefetches. For
// this prefetcher, Prefetch Distance and Prefetch Degree are the same
// parameter (the paper's footnote 14).

import "fdpsim/internal/cache"

const (
	ghbMaxHistory = 64 // deepest zone history walked for delta correlation
)

type ghbEntry struct {
	block uint64
	prev  int // index of the previous entry in the same zone, -1 if none
	seq   uint64
}

type ghbIndexEntry struct {
	zone uint64 // the C-Zone this entry indexes
	idx  int    // GHB index of the newest entry for this zone
	seq  uint64 // sequence number of that entry, to detect overwrites
	used uint64 // LRU tick for index-table replacement
}

// GHBPrefetcher implements Prefetcher.
type GHBPrefetcher struct {
	buf  []ghbEntry
	head int
	seq  uint64
	// index maps a zone to its entry in entries, whose capacity is the
	// index table's size.
	index      cache.BlockIndex
	entries    []ghbIndexEntry
	czoneShift uint
	level      int
	tick       uint64
	maxBlock   uint64
	// hist/x/d are per-Observe scratch, reused so the steady-state miss
	// path performs no heap allocation.
	hist []uint64
	x    []int64
	d    []int64
}

// NewGHB creates a GHB C/DC prefetcher. bufSize is the history-buffer
// depth (256 in Nesbit & Smith's evaluation), indexEntries bounds the
// C-Zone index table, and czoneBlocks is the zone size in cache blocks
// (1024 blocks = 64 KB zones of 64 B lines).
func NewGHB(bufSize, indexEntries, czoneBlocks int) *GHBPrefetcher {
	if bufSize <= 0 {
		bufSize = 256
	}
	if indexEntries <= 0 {
		indexEntries = 256
	}
	if czoneBlocks <= 0 {
		czoneBlocks = 1024
	}
	var shift uint
	for v := czoneBlocks; v > 1; v >>= 1 {
		shift++
	}
	g := &GHBPrefetcher{
		buf:        make([]ghbEntry, bufSize),
		index:      cache.NewBlockIndex(indexEntries),
		entries:    make([]ghbIndexEntry, 0, indexEntries),
		czoneShift: shift,
		level:      3,
		maxBlock:   1 << 58,
		hist:       make([]uint64, 0, ghbMaxHistory),
		x:          make([]int64, 0, ghbMaxHistory),
		d:          make([]int64, 0, ghbMaxHistory),
	}
	for i := range g.buf {
		g.buf[i].prev = -1
	}
	return g
}

// Name implements Prefetcher.
func (g *GHBPrefetcher) Name() string { return "ghb-cdc" }

// SetLevel implements Prefetcher.
func (g *GHBPrefetcher) SetLevel(level int) { g.level = clampLevel(level) }

// Level implements Prefetcher.
func (g *GHBPrefetcher) Level() int { return g.level }

// Degree returns the current prefetch degree (= distance for GHB C/DC).
func (g *GHBPrefetcher) Degree() int { return GHBDegrees[g.level] }

// Observe implements Prefetcher: the GHB trains on L2 demand misses only.
func (g *GHBPrefetcher) Observe(ev *Event, out []uint64) []uint64 {
	if !ev.Miss {
		return out
	}
	g.tick++
	zone := ev.Block >> g.czoneShift
	g.push(zone, ev.Block)
	hist := g.history(zone)
	if len(hist) < 3 {
		return out
	}
	return g.correlate(hist, out)
}

// lookup returns the zone's index entry, or nil.
func (g *GHBPrefetcher) lookup(zone uint64) *ghbIndexEntry {
	if i, ok := g.index.Get(zone); ok {
		return &g.entries[i]
	}
	return nil
}

// push records a miss in the GHB, linking it to the zone's previous entry.
// Each push stamps the zone's entry with the miss's own tick, so no two
// entries share a used value.
func (g *GHBPrefetcher) push(zone, block uint64) {
	ie := g.lookup(zone)
	prev := -1
	if ie != nil && g.valid(ie.idx, ie.seq) {
		prev = ie.idx
	}
	g.seq++
	g.buf[g.head] = ghbEntry{block: block, prev: prev, seq: g.seq}
	if ie == nil {
		i := len(g.entries)
		if i < cap(g.entries) {
			g.entries = g.entries[:i+1]
		} else {
			i = g.evictIndex()
		}
		g.index.Put(zone, int32(i))
		ie = &g.entries[i]
		*ie = ghbIndexEntry{zone: zone}
	}
	ie.idx = g.head
	ie.seq = g.seq
	ie.used = g.tick
	g.head = (g.head + 1) % len(g.buf)
}

// valid reports whether GHB slot idx still holds the entry with sequence
// number seq (circular overwrites invalidate stale links).
func (g *GHBPrefetcher) valid(idx int, seq uint64) bool {
	return idx >= 0 && idx < len(g.buf) && g.buf[idx].seq == seq
}

// evictIndex drops the least recently used zone from the full index
// table and returns its entry's position for reuse.
func (g *GHBPrefetcher) evictIndex() int {
	victim := 0
	for i := range g.entries {
		if g.entries[i].used < g.entries[victim].used {
			victim = i
		}
	}
	g.index.Delete(g.entries[victim].zone)
	return victim
}

// history walks the zone's chain and returns miss addresses newest-first.
// The returned slice is g.hist, valid until the next call.
func (g *GHBPrefetcher) history(zone uint64) []uint64 {
	ie := g.lookup(zone)
	if ie == nil || !g.valid(ie.idx, ie.seq) {
		return nil
	}
	out := g.hist[:0]
	idx := ie.idx
	for len(out) < ghbMaxHistory {
		e := &g.buf[idx]
		out = append(out, e.block)
		p := e.prev
		// A backward link is valid iff the pointed slot has not been
		// rewritten since this entry was pushed, i.e. its sequence number
		// is still older than ours.
		if p < 0 || g.buf[p].seq == 0 || g.buf[p].seq >= e.seq {
			break
		}
		idx = p
	}
	g.hist = out
	return out
}

// correlate applies delta correlation to a newest-first address history:
// find an earlier occurrence of the two most recent deltas, then replay the
// deltas that followed it (cyclically) to produce up to Degree prefetches.
func (g *GHBPrefetcher) correlate(hist []uint64, out []uint64) []uint64 {
	// Chronological addresses: x[0] oldest .. x[n-1] newest. n is at most
	// ghbMaxHistory, so the preallocated scratch never regrows.
	n := len(hist)
	x := g.x[:n]
	for i, b := range hist {
		x[n-1-i] = int64(b)
	}
	// Delta stream d[i] = x[i+1]-x[i], length n-1; key is the last pair.
	d := g.d[:n-1]
	for i := 0; i+1 < n; i++ {
		d[i] = x[i+1] - x[i]
	}
	k1, k2 := d[len(d)-2], d[len(d)-1]
	match := -1
	for j := len(d) - 3; j >= 1; j-- {
		if d[j-1] == k1 && d[j] == k2 {
			match = j
			break
		}
	}
	if match < 0 {
		return out
	}
	// Replay deltas d[match+1..], wrapping back to d[match-1]'s successor
	// region (the C/DC "delta replay" loop), until Degree prefetches.
	replay := d[match+1:]
	if len(replay) == 0 {
		return out
	}
	degree := g.Degree()
	addr := x[n-1]
	for i, emitted := 0, 0; emitted < degree; i, emitted = i+1, emitted+1 {
		addr += replay[i%len(replay)]
		if addr < 0 || uint64(addr) > g.maxBlock {
			break
		}
		out = append(out, uint64(addr))
	}
	return out
}
