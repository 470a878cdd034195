package sim

import (
	"fdpsim/internal/cache"
	"fdpsim/internal/mem"
	"fdpsim/internal/stats"
)

// attribution is the hierarchy-side state of the cycle-accounting and
// bandwidth-attribution layer (enabled by Config.Attribution). It is
// purely observational: every hook reads simulation state or records
// timestamps, and none of them feeds back into timing decisions, so
// enabling it cannot perturb results. All of its state is fixed-size or
// built at construction for the most entries it can hold, so it
// allocates nothing while the run loop steps.
type attribution struct {
	// cpu is written by the core each cycle (cpu.SetAttribution target);
	// cumulative since construction, including warmup.
	cpu stats.CycleBuckets

	// agg accumulates the whole-run histograms (occupancy, timeliness)
	// post-warmup; the cumulative-counter fields (Cycles, Bus*, Row*) are
	// filled at finalize from the baselines below.
	agg stats.Attribution

	// fillCycle records, per prefetched block, the cycle its fill
	// completed — consumed by the first demand use (fill-to-use latency)
	// or by eviction (unused prefetch); such a block is resident in the
	// L2 or the prefetch cache, so it holds at most their blocks. lateAt
	// records, per late prefetch, the cycle the demand merged into the
	// in-flight request — consumed by the fill (late-by latency); such a
	// request holds an MSHR, so it holds at most MSHRs.
	fillCycle stamps
	lateAt    stamps

	// Warmup baselines: cycle buckets and DRAM stats at the warmup reset,
	// subtracted at finalize so Attribution covers post-warmup work only.
	warmCycles stats.CycleBuckets
	warmMem    mem.Stats

	// Previous interval-boundary snapshots, for per-interval deltas.
	lastCycles stats.CycleBuckets
	lastMem    mem.Stats

	// Per-interval occupancy-sample accumulators (reset every boundary).
	mshrSum, queueSum, sampleCount uint64
}

func newAttribution(cfg *Config) *attribution {
	return &attribution{
		fillCycle: newStamps(cfg.L2Blocks + cfg.PrefCacheBlocks),
		lateAt:    newStamps(cfg.MSHRs),
	}
}

// stamps maps blocks to cycles: a slab of cycles behind a block index,
// both built for capacity blocks, so that put and take allocate nothing
// until more than capacity blocks are held at once.
type stamps struct {
	index cache.BlockIndex
	at    []uint64
	free  []int32
}

func newStamps(capacity int) stamps {
	s := stamps{index: cache.NewBlockIndex(capacity), at: make([]uint64, capacity), free: make([]int32, capacity)}
	for i := range s.free {
		s.free[i] = int32(capacity - 1 - i)
	}
	return s
}

// put records cycle for block, replacing any cycle it held.
func (s *stamps) put(block cache.Addr, cycle uint64) {
	i, ok := s.index.Get(block)
	if !ok {
		if n := len(s.free); n > 0 {
			i, s.free = s.free[n-1], s.free[:n-1]
		} else {
			i, s.at = int32(len(s.at)), append(s.at, 0)
		}
		s.index.Put(block, i)
	}
	s.at[i] = cycle
}

// take removes block's cycle and returns it, or reports false when block
// holds none.
func (s *stamps) take(block cache.Addr) (uint64, bool) {
	i, ok := s.index.Delete(block)
	if !ok {
		return 0, false
	}
	s.free = append(s.free, i)
	return s.at[i], true
}

// backpressured reports whether the memory system is refusing new demand
// work: demand accesses are parked awaiting replay, or the MSHR file is
// full. Used by the core to split load-miss stalls.
func (h *hierarchy) backpressured() bool {
	return h.pendingDemand.len() > 0 || h.mshr.Full()
}

// attrSampleCycles records k cycles' occupancy samples (MSHR file and
// DRAM queue depths), all equal to the current ones. Called from Tick
// with k = 1 when attribution is on, and by the run loop for a skipped
// stretch, over which the depths cannot change.
func (h *hierarchy) attrSampleCycles(k uint64) {
	a := h.attr
	mo := uint64(h.mshr.Used())
	qd := uint64(h.dram.QueueLen(mem.Demand))
	qp := uint64(h.dram.QueueLen(mem.Prefetch))
	qw := uint64(h.dram.QueueLen(mem.Writeback))
	a.agg.MSHROcc.AddN(mo, k)
	a.agg.QueueDemand.AddN(qd, k)
	a.agg.QueuePrefetch.AddN(qp, k)
	a.agg.QueueWriteback.AddN(qw, k)
	a.mshrSum += k * mo
	a.queueSum += k * (qd + qp + qw)
	a.sampleCount += k
}

// attrPrefFilled records a prefetch fill completing at the current cycle
// (start of the block's fill-to-use clock). If the fill resolves a late
// prefetch — a demand merged while it was in flight — the late-by
// duration is recorded instead and the block yields no fill-to-use sample
// (the demand consumed it before it ever sat idle in the cache).
func (h *hierarchy) attrPrefFilled(block cache.Addr, stillPref bool) {
	a := h.attr
	if stillPref {
		a.fillCycle.put(block, h.cyc)
		return
	}
	if at, ok := a.lateAt.take(block); ok {
		a.agg.LateBy.Add(h.cyc - at)
	}
}

// attrPrefLate records the cycle a demand merged into an in-flight
// prefetch (start of the late-by clock).
func (h *hierarchy) attrPrefLate(block cache.Addr) {
	h.attr.lateAt.put(block, h.cyc)
}

// attrPrefUsed records the first demand use of a prefetched block.
func (h *hierarchy) attrPrefUsed(block cache.Addr) {
	a := h.attr
	if fc, ok := a.fillCycle.take(block); ok {
		a.agg.FillToUse.Add(h.cyc - fc)
	}
}

// attrPrefEvicted records a prefetched block leaving the L2 or the
// prefetch cache without ever being used.
func (h *hierarchy) attrPrefEvicted(block cache.Addr) {
	a := h.attr
	if _, ok := a.fillCycle.take(block); ok {
		a.agg.PrefUnused++
	}
}

// attrWarmupReset snapshots the warm baselines at the end of the warmup
// phase and clears the post-warmup accumulators, mirroring the runner's
// Counters reset. The timeliness stamps are kept: blocks prefetched during
// warmup may see their first use afterwards, and the recorded timestamps
// are absolute cycles, so the durations stay correct across the reset.
func (h *hierarchy) attrWarmupReset() {
	a := h.attr
	fillCycle, lateAt := a.fillCycle, a.lateAt
	*a = attribution{
		cpu:        a.cpu,
		fillCycle:  fillCycle,
		lateAt:     lateAt,
		warmCycles: a.cpu,
		warmMem:    h.dram.Stats(),
		lastCycles: a.cpu,
		lastMem:    h.dram.Stats(),
	}
}

// attrIntervalSample builds the attribution delta since the previous FDP
// interval boundary (or warmup reset) and advances the boundary
// snapshots. The interval's cycle count is the bucket-delta total — by
// construction the stall-cause buckets sum to it exactly.
func (h *hierarchy) attrIntervalSample() stats.IntervalSample {
	a := h.attr
	cur := a.cpu
	ms := h.dram.Stats()
	bus := h.busCycles(ms, a.lastMem)
	s := stats.IntervalSample{
		Cycles:             cur.Sub(a.lastCycles),
		BusDemandCycles:    bus[mem.Demand],
		BusPrefetchCycles:  bus[mem.Prefetch],
		BusWritebackCycles: bus[mem.Writeback],
		RowHits:            ms.RowHits - a.lastMem.RowHits,
		RowMisses:          ms.RowMisses - a.lastMem.RowMisses,
	}
	if t := s.Cycles.Total(); t > 0 {
		s.BusUtilization = float64(s.BusOccupancy()) / float64(t)
	}
	if a.sampleCount > 0 {
		s.MSHRMean = float64(a.mshrSum) / float64(a.sampleCount)
		s.QueueMean = float64(a.queueSum) / float64(a.sampleCount)
	}
	a.lastCycles = cur
	a.lastMem = ms
	a.mshrSum, a.queueSum, a.sampleCount = 0, 0, 0
	return s
}

// attrFinalize materializes the whole-run Attribution block: the
// histograms accumulated since warmup plus the cumulative counters
// relative to the warm baselines. Returns nil when attribution is off.
func (h *hierarchy) attrFinalize() *stats.Attribution {
	a := h.attr
	if a == nil {
		return nil
	}
	out := a.agg
	out.Cycles = a.cpu.Sub(a.warmCycles)
	ms := h.dram.Stats()
	bus := h.busCycles(ms, a.warmMem)
	out.BusDemandCycles = bus[mem.Demand]
	out.BusPrefetchCycles = bus[mem.Prefetch]
	out.BusWritebackCycles = bus[mem.Writeback]
	out.RowHits = ms.RowHits - a.warmMem.RowHits
	out.RowMisses = ms.RowMisses - a.warmMem.RowMisses
	return &out
}
