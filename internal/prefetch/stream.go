package prefetch

// Stream prefetcher modeled on the IBM POWER4 design as described in
// Section 2.1 of the paper. It tracks up to 64 concurrent access streams.
// Each tracking entry walks a four-state machine:
//
//	Invalid -> Allocated (on a demand L2 miss with no covering entry)
//	Allocated -> Training (direction votes from subsequent nearby misses)
//	Training -> Monitor and Request (two consistent direction votes)
//
// In Monitor and Request, a demand access anywhere in the monitored region
// [start..end] issues Degree prefetches past the end pointer and slides the
// region forward, keeping the prefetcher Distance blocks ahead of the
// demand stream.

// Stream tracking entry states.
const (
	streamInvalid = iota
	streamAllocated
	streamTraining
	streamMonitor
)

// trainWindow is the paper's +/-16-block window for associating misses
// with a training entry.
const trainWindow = 16

// startupDistance is how far past the last training miss the end pointer
// is initialized ("plus an initial start-up distance", footnote 5).
const startupDistance = 2

type streamEntry struct {
	state int
	dir   int64 // +1 ascending, -1 descending
	first int64 // miss address that allocated the entry
	last  int64 // most recent training miss
	votes int   // consecutive consistent direction votes
	start int64 // monitored region start pointer (address A)
	end   int64 // monitored region end pointer (address P)
	// accesses counts demand accesses serviced by this entry's monitored
	// region, the per-stream confidence used by the ramping mode.
	accesses uint64
}

// StreamPrefetcher implements Prefetcher.
type StreamPrefetcher struct {
	entries []streamEntry
	// The match keys, what the per-access scans read: one slot per entry
	// in each of five arrays that share one allocation. Slot i holds
	// entry i's monitored region [monLo, monLo+monWidth) while it is in
	// Monitor and Request (start..end ascending, end..start descending),
	// its training window [trainLo, trainLo+trainWidth), ±trainWindow
	// around first, while it is Allocated or Training, and its LRU tick,
	// 0 while Invalid. A width of 0 matches no block, so the other states
	// need no sentinel address. sync(i) refreshes slot i after each of
	// Observe's mutations, the only ones an entry sees.
	monLo, monWidth     []uint64
	trainLo, trainWidth []uint64
	lru                 []uint64
	level               int
	tick                uint64
	// ramp enables per-stream adaptation (the paper's footnote 8
	// alternative to global feedback): each tracking entry starts at the
	// most conservative configuration and earns aggressiveness — up to
	// the global level — as its stream proves itself, in the spirit of
	// the IBM POWER4's stream ramp-up.
	ramp bool
	// MaxBlock bounds generated prefetch addresses (wrap protection).
	maxBlock int64
}

// NewStream creates a stream prefetcher with the given number of tracking
// entries (the paper's baseline uses 64) at Middle-of-the-Road
// aggressiveness.
func NewStream(streams int) *StreamPrefetcher {
	if streams <= 0 {
		streams = 64
	}
	keys := make([]uint64, 5*streams)
	slot := func(k int) []uint64 { return keys[k*streams : (k+1)*streams : (k+1)*streams] }
	return &StreamPrefetcher{
		entries:    make([]streamEntry, streams),
		monLo:      slot(0),
		monWidth:   slot(1),
		trainLo:    slot(2),
		trainWidth: slot(3),
		lru:        slot(4),
		level:      3,
		maxBlock:   1 << 58,
	}
}

// Name implements Prefetcher.
func (s *StreamPrefetcher) Name() string { return "stream" }

// SetLevel implements Prefetcher.
func (s *StreamPrefetcher) SetLevel(level int) { s.level = clampLevel(level) }

// Level implements Prefetcher.
func (s *StreamPrefetcher) Level() int { return s.level }

// Distance returns the current Prefetch Distance (Table 1).
func (s *StreamPrefetcher) Distance() int64 { return int64(StreamLevels[s.level].Distance) }

// Degree returns the current Prefetch Degree (Table 1).
func (s *StreamPrefetcher) Degree() int64 { return int64(StreamLevels[s.level].Degree) }

// SetPerStreamRamp toggles per-stream adaptation (footnote 8).
func (s *StreamPrefetcher) SetPerStreamRamp(on bool) { s.ramp = on }

// entryLevel returns the Table 1 level an entry operates at: the global
// level, clamped by the entry's earned confidence when ramping.
func (s *StreamPrefetcher) entryLevel(e *streamEntry) int {
	if !s.ramp {
		return s.level
	}
	earned := 1 + int(e.accesses/8)
	if earned > s.level {
		return s.level
	}
	return earned
}

// Observe implements Prefetcher. Demand misses allocate and train entries;
// any demand access inside a monitored region triggers prefetches.
func (s *StreamPrefetcher) Observe(ev *Event, out []uint64) []uint64 {
	s.tick++

	// Monitor match takes priority: an access within a monitored region
	// issues prefetches and advances the region.
	if i := s.findMonitor(ev.Block); i >= 0 {
		e := &s.entries[i]
		e.accesses++
		out = s.issue(e, out)
		s.sync(i)
		return out
	}

	if !ev.Miss {
		return out
	}

	// A miss near a training/allocated entry contributes a direction vote.
	addr := int64(ev.Block)
	if i := s.findTraining(ev.Block); i >= 0 {
		e := &s.entries[i]
		s.train(e, addr)
		if e.state == streamMonitor {
			// Treat the trained miss as the first access to the region.
			out = s.issue(e, out)
		}
		s.sync(i)
		return out
	}

	// Otherwise the miss allocates a new tracking entry.
	i := s.victim()
	s.entries[i] = streamEntry{state: streamAllocated, first: addr, last: addr}
	s.sync(i)
	return out
}

// sync recomputes entry i's keys from its state and stamps it most
// recently used. A region with lo > hi gets width 0: it holds no block.
func (s *StreamPrefetcher) sync(i int) {
	e := &s.entries[i]
	s.lru[i] = s.tick
	s.monLo[i], s.monWidth[i], s.trainLo[i], s.trainWidth[i] = 0, 0, 0, 0
	switch e.state {
	case streamAllocated, streamTraining:
		s.trainLo[i], s.trainWidth[i] = uint64(e.first-trainWindow), 2*trainWindow+1
	case streamMonitor:
		lo, hi := e.start, e.end
		if e.dir < 0 {
			lo, hi = hi, lo
		}
		if lo <= hi {
			s.monLo[i], s.monWidth[i] = uint64(lo), uint64(hi-lo)+1
		}
	}
}

// firstIn returns the first i with block in [lo[i], lo[i]+width[i]), or
// -1. One unsigned subtraction tests a window: a block below lo[i] wraps
// to a difference of at least width[i], also when the window itself
// wraps below block 0.
func firstIn(lo, width []uint64, block uint64) int {
	width = width[:len(lo)]
	for i, l := range lo {
		if block-l < width[i] {
			return i
		}
	}
	return -1
}

// findMonitor returns the first entry whose monitored region holds block,
// or -1.
func (s *StreamPrefetcher) findMonitor(block uint64) int {
	return firstIn(s.monLo, s.monWidth, block)
}

// findTraining returns the first Allocated or Training entry whose first
// miss lies within ±trainWindow blocks of block, or -1.
func (s *StreamPrefetcher) findTraining(block uint64) int {
	return firstIn(s.trainLo, s.trainWidth, block)
}

// victim returns the first entry with the smallest LRU tick: the first
// Invalid entry (tick 0) if any, else the least recently used, since
// Observe stamps at most one entry per tick.
func (s *StreamPrefetcher) victim() int {
	v, oldest := 0, s.lru[0]
	for i, t := range s.lru {
		if t < oldest {
			v, oldest = i, t
		}
	}
	return v
}

// train processes one direction vote from a miss at addr.
func (s *StreamPrefetcher) train(e *streamEntry, addr int64) {
	if addr == e.last {
		return // duplicate miss address carries no direction information
	}
	var vote int64 = 1
	if addr < e.last {
		vote = -1
	}
	switch e.state {
	case streamAllocated:
		e.dir = vote
		e.votes = 1
		e.state = streamTraining
	case streamTraining:
		if vote == e.dir {
			e.votes++
		} else {
			// Inconsistent direction: restart training from this miss.
			e.dir = vote
			e.votes = 1
			e.first = e.last
		}
	}
	e.last = addr
	if e.state == streamTraining && e.votes >= 2 {
		e.state = streamMonitor
		e.start = e.first
		e.end = addr + e.dir*startupDistance
	}
}

// issue generates the prefetch addresses [P+1 .. P+N] (direction-adjusted)
// for a monitored entry and slides the region per footnote 5: the start
// pointer begins advancing only once the region has grown to Distance.
func (s *StreamPrefetcher) issue(e *streamEntry, out []uint64) []uint64 {
	lvl := s.entryLevel(e)
	n := int64(StreamLevels[lvl].Degree)
	dist := int64(StreamLevels[lvl].Distance)
	for i := int64(1); i <= n; i++ {
		a := e.end + e.dir*i
		if a < 0 || a > s.maxBlock {
			break
		}
		out = append(out, uint64(a))
	}
	e.end += e.dir * n
	if size := (e.end - e.start) * e.dir; size > dist {
		// Keep the monitored region at most Distance blocks long; this also
		// shrinks the region when FDP lowers the distance dynamically.
		e.start = e.end - e.dir*dist
	}
	return out
}

// MonitorRegions returns, for tests, the (start, end, dir) triples of all
// entries in Monitor and Request state.
func (s *StreamPrefetcher) MonitorRegions() [][3]int64 {
	var out [][3]int64
	for i := range s.entries {
		e := &s.entries[i]
		if e.state == streamMonitor {
			out = append(out, [3]int64{e.start, e.end, e.dir})
		}
	}
	return out
}
