package stats

import "math/bits"

// This file holds the attribution subsystem's types: top-down cycle
// accounting (every core cycle classified into a retire or stall bucket),
// memory-system pressure histograms, and prefetch-timeliness
// distributions. The simulator fills them only when Config.Attribution is
// set; all types are plain values with fixed-size storage so sampling
// them on the hot path allocates nothing.

// CycleBuckets classifies every core cycle into exactly one bucket, so
// the buckets always sum to the elapsed cycle count. Classification
// precedence, evaluated per cycle after retire:
//
//	retired == width          -> RetireFull
//	retired  > 0              -> RetirePartial
//	ROB occupied, none retired:
//	    ROB full              -> StallROBFull  (window exhausted behind the miss)
//	    DRAM backpressured    -> StallDRAMBP   (memory system refusing new work)
//	    otherwise             -> StallLoadMiss (head load's data not back yet)
//	ROB empty:
//	    fetch stalled         -> StallIFetch
//	    otherwise             -> StallFrontend (dispatch produced nothing)
//
// Only loads ever occupy the ROB incomplete (stores and nops complete at
// dispatch), so the three ROB-occupied stall causes are all forms of
// waiting on a load miss — split by which structural resource is the
// bottleneck, the way top-down analysis splits "memory bound".
type CycleBuckets struct {
	RetireFull    uint64 `json:"retire_full"`     // retired a full width
	RetirePartial uint64 `json:"retire_partial"`  // retired 1..width-1
	StallLoadMiss uint64 `json:"stall_load_miss"` // head load outstanding, ROB not full
	StallROBFull  uint64 `json:"stall_rob_full"`  // head load outstanding, ROB full
	StallDRAMBP   uint64 `json:"stall_dram_bp"`   // head load outstanding, memory system backpressured
	StallIFetch   uint64 `json:"stall_ifetch"`    // ROB empty, waiting on an instruction block
	StallFrontend uint64 `json:"stall_frontend"`  // ROB empty, no fetch stall (dispatch gap)
}

// Total returns the sum of all buckets — the classified cycle count.
func (b CycleBuckets) Total() uint64 {
	return b.RetireFull + b.RetirePartial + b.StallLoadMiss +
		b.StallROBFull + b.StallDRAMBP + b.StallIFetch + b.StallFrontend
}

// Sub returns the per-bucket difference b - prev (b taken at a later
// sample point), used to turn cumulative buckets into interval deltas.
func (b CycleBuckets) Sub(prev CycleBuckets) CycleBuckets {
	return CycleBuckets{
		RetireFull:    b.RetireFull - prev.RetireFull,
		RetirePartial: b.RetirePartial - prev.RetirePartial,
		StallLoadMiss: b.StallLoadMiss - prev.StallLoadMiss,
		StallROBFull:  b.StallROBFull - prev.StallROBFull,
		StallDRAMBP:   b.StallDRAMBP - prev.StallDRAMBP,
		StallIFetch:   b.StallIFetch - prev.StallIFetch,
		StallFrontend: b.StallFrontend - prev.StallFrontend,
	}
}

// Share returns bucket/Total() in 0..1, or 0 when no cycles are recorded.
func (b CycleBuckets) Share(bucket uint64) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(bucket) / float64(t)
}

// LogHistBuckets is the fixed bucket count of LogHist: bucket i counts
// values v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and bucket
// i >= 1 holds 2^(i-1) <= v < 2^i. 64-bit values always fit.
const LogHistBuckets = 65

// LogHist is a power-of-two-bucketed histogram with fixed storage, so
// recording a sample is one shift-class computation and one array
// increment — safe for per-cycle use on the allocation-free hot path.
type LogHist struct {
	Counts [LogHistBuckets]uint64 `json:"counts"`
}

// Add records one sample.
func (h *LogHist) Add(v uint64) { h.Counts[bits.Len64(v)]++ }

// AddN records n samples of the same value v, as n calls to Add would.
func (h *LogHist) AddN(v, n uint64) { h.Counts[bits.Len64(v)] += n }

// Total returns the number of recorded samples.
func (h *LogHist) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Mean returns the arithmetic mean of the bucket midpoints weighted by
// count — an estimate, exact only for 0/1-valued samples, but stable
// enough for dashboards and tables.
func (h *LogHist) Mean() float64 {
	var sum float64
	var n uint64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		n += c
		sum += float64(c) * logBucketMid(i)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1) of the recorded samples, or 0 when empty.
func (h *LogHist) Quantile(q float64) uint64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for i, c := range h.Counts {
		acc += c
		if acc >= target {
			return logBucketHigh(i)
		}
	}
	return logBucketHigh(LogHistBuckets - 1)
}

// logBucketMid is the midpoint of bucket i's value range.
func logBucketMid(i int) float64 {
	if i == 0 {
		return 0
	}
	lo := uint64(1) << (i - 1)
	return float64(lo) * 1.5
}

// logBucketHigh is the inclusive upper bound of bucket i's value range.
func logBucketHigh(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << i) - 1
}

// Attribution is a whole run's attribution block: cumulative post-warmup
// cycle accounting, memory-system pressure, and prefetch timeliness. The
// runner attaches it to Result (as a pointer, omitted when attribution is
// off) so the JSON shape of non-attribution runs is unchanged.
type Attribution struct {
	// Cycles classifies every post-warmup core cycle; Cycles.Total()
	// equals Counters.Cycles.
	Cycles CycleBuckets `json:"cycles"`

	// BusDemandCycles/BusPrefetchCycles/BusWritebackCycles are data-bus
	// occupancy cycles by transaction kind (transfers started × the
	// configured per-block transfer time). Their sum over Cycles.Total()
	// is the run's bus utilization.
	BusDemandCycles    uint64 `json:"bus_demand_cycles"`
	BusPrefetchCycles  uint64 `json:"bus_prefetch_cycles"`
	BusWritebackCycles uint64 `json:"bus_writeback_cycles"`

	// RowHits/RowMisses are DRAM row-buffer outcomes (a row miss is a
	// bank precharge/activate — the bank-conflict case).
	RowHits   uint64 `json:"row_hits"`
	RowMisses uint64 `json:"row_misses"`

	// MSHROcc and QueueDemand/QueuePrefetch/QueueWriteback sample the
	// MSHR-file occupancy and the DRAM request-queue depths once per core
	// cycle.
	MSHROcc        LogHist `json:"mshr_occupancy"`
	QueueDemand    LogHist `json:"queue_demand"`
	QueuePrefetch  LogHist `json:"queue_prefetch"`
	QueueWriteback LogHist `json:"queue_writeback"`

	// FillToUse is the prefetch-timeliness distribution: cycles from a
	// prefetch's fill to its first demand use. LateBy distributes how
	// late the late prefetches were: cycles from the demand's arrival at
	// the in-flight prefetch to the fill. PrefUnused counts prefetched
	// blocks evicted without ever being used.
	FillToUse  LogHist `json:"fill_to_use"`
	LateBy     LogHist `json:"late_by"`
	PrefUnused uint64  `json:"pref_unused"`
}

// BusOccupancy returns total data-bus occupancy cycles across all kinds.
func (a *Attribution) BusOccupancy() uint64 {
	return a.BusDemandCycles + a.BusPrefetchCycles + a.BusWritebackCycles
}

// BusUtilization returns occupancy/cycles in 0..1 (it can slightly exceed
// 1 when transfers started near the end of the run drain after it).
func (a *Attribution) BusUtilization() float64 {
	t := a.Cycles.Total()
	if t == 0 {
		return 0
	}
	return float64(a.BusOccupancy()) / float64(t)
}

// RowHitRate returns RowHits/(RowHits+RowMisses), or 0 with no accesses.
func (a *Attribution) RowHitRate() float64 {
	if a.RowHits+a.RowMisses == 0 {
		return 0
	}
	return float64(a.RowHits) / float64(a.RowHits+a.RowMisses)
}

// IntervalSample is one FDP sampling interval's attribution delta,
// embedded by value in sim.DecisionEvent (zero, and omitted from trace
// JSON, when attribution is off). All fields are plain values so building
// and copying a sample allocates nothing.
type IntervalSample struct {
	// Cycles is this interval's cycle classification; Cycles.Total() is
	// the interval's core-cycle count.
	Cycles CycleBuckets `json:"cycles"`

	// Per-kind data-bus occupancy cycles within the interval.
	BusDemandCycles    uint64 `json:"bus_demand_cycles"`
	BusPrefetchCycles  uint64 `json:"bus_prefetch_cycles"`
	BusWritebackCycles uint64 `json:"bus_writeback_cycles"`

	// BusUtilization is occupancy/cycles for the interval, 0..1 (it can
	// exceed 1 slightly when transfers straddle the boundary).
	BusUtilization float64 `json:"bus_utilization"`

	// RowHits/RowMisses are the interval's DRAM row-buffer outcomes.
	RowHits   uint64 `json:"row_hits"`
	RowMisses uint64 `json:"row_misses"`

	// MSHRMean/QueueMean summarize the per-cycle occupancy samples taken
	// since the previous boundary (whole-run histograms keep the full
	// distributions; the per-interval view carries means to stay compact).
	MSHRMean  float64 `json:"mshr_mean"`
	QueueMean float64 `json:"queue_mean"`
}

// BusOccupancy returns the interval's total bus occupancy cycles.
func (s IntervalSample) BusOccupancy() uint64 {
	return s.BusDemandCycles + s.BusPrefetchCycles + s.BusWritebackCycles
}

// RowHitRate returns the interval's row-buffer hit rate.
func (s IntervalSample) RowHitRate() float64 {
	if s.RowHits+s.RowMisses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.RowHits+s.RowMisses)
}
