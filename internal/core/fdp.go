// Package core implements Feedback Directed Prefetching (FDP), the paper's
// primary contribution (Section 3): run-time estimation of prefetch
// accuracy, lateness and prefetcher-generated cache pollution, sampled in
// eviction-defined intervals with exponential decay, driving (1) a 3-bit
// saturating Dynamic Configuration Counter that throttles the prefetcher's
// aggressiveness per Table 2, and (2) the LRU-stack position at which
// prefetched blocks are inserted into the L2.
package core

import (
	"fdpsim/internal/cache"
	"fdpsim/internal/stats"
)

// Thresholds holds the static classification thresholds of Section 4.3.
// The OCR of the paper dropped the numeric row; the defaults below are the
// published values and are flagged as reconstructions in DESIGN.md.
type Thresholds struct {
	AHigh      float64 // accuracy >= AHigh        -> High
	ALow       float64 // accuracy < ALow          -> Low
	TLateness  float64 // lateness >= TLateness    -> Late
	TPollution float64 // pollution >= TPollution  -> Polluting
	PLow       float64 // pollution < PLow         -> insert at MID
	PHigh      float64 // pollution < PHigh        -> insert at LRU-4, else LRU
}

// DefaultThresholds returns the classification thresholds. AHigh, ALow and
// TLateness are the published values. The pollution thresholds are
// recalibrated for this simulator: under its (much shorter) runs and
// bus-saturated workloads the 4096-bit filter's collision noise sits near
// 5-8% of demand misses for late-prefetch streams and 20-25% for timely
// ones (whose demand-filled training misses are displaced by prefetch
// fills), so the published 0.5% pollution cutoffs would classify pure
// streaming as polluting. The values below keep the paper's ordering
// (TPollution <= PLow < PHigh) above those noise bands; genuinely
// polluted workloads measure 40%+.
func DefaultThresholds() Thresholds {
	return Thresholds{
		AHigh:      0.75,
		ALow:       0.40,
		TLateness:  0.01,
		TPollution: 0.075,
		PLow:       0.10,
		PHigh:      0.35,
	}
}

// Config selects which FDP mechanisms are active and their parameters.
type Config struct {
	Thresholds Thresholds
	// TInterval is the number of useful-block evictions that end a
	// sampling interval (8192 = half the blocks of the 1 MB L2).
	TInterval uint64
	// FilterBits sizes the pollution filter (4096 in the paper).
	FilterBits int
	// DynamicAggressiveness enables the Table 2 throttling loop.
	DynamicAggressiveness bool
	// DynamicInsertion enables the pollution-directed insertion policy.
	DynamicInsertion bool
	// StaticInsertion is used for prefetch fills when DynamicInsertion is
	// off (the baseline inserts at MRU).
	StaticInsertion cache.InsertPos
	// InitLevel seeds the Dynamic Configuration Counter (3 in the paper).
	InitLevel int
	// AccuracyOnly reproduces the Section 5.6 ablation: the counter is
	// incremented on high accuracy and decremented on low accuracy,
	// ignoring lateness and pollution.
	AccuracyOnly bool
}

// DefaultConfig returns the paper's FDP configuration with both dynamic
// mechanisms enabled.
func DefaultConfig() Config {
	return Config{
		Thresholds:            DefaultThresholds(),
		TInterval:             8192,
		FilterBits:            4096,
		DynamicAggressiveness: true,
		DynamicInsertion:      true,
		StaticInsertion:       cache.PosMRU,
		InitLevel:             3,
	}
}

// counter implements the Equation 1 sampling counter: at each interval end
// the retained value is halved and the in-interval count is folded in.
// The paper provisions 16-bit registers; values saturate accordingly.
type counter struct {
	value  uint64 // decayed value as of the last interval boundary
	during uint64 // raw count within the current interval
}

const counterMax = 1<<16 - 1

func (c *counter) add(n uint64) {
	c.during += n
	if c.during > counterMax {
		c.during = counterMax
	}
}

// roll applies Equation 1 and resets the in-interval count, returning the
// new decayed value.
func (c *counter) roll() uint64 {
	c.value = c.value/2 + c.during
	if c.value > counterMax {
		c.value = counterMax
	}
	c.during = 0
	return c.value
}

// IntervalCounts is one reading of the five Section 3.1 event counters.
// The engine reports two of these per interval: the raw in-interval counts
// and the Equation 1 accumulated values (previous value halved plus the
// raw count) that the boundary actually classified.
type IntervalCounts struct {
	PrefSent        uint64 `json:"pref_sent"`        // prefetches sent to memory
	PrefUsed        uint64 `json:"pref_used"`        // useful prefetches
	PrefLate        uint64 `json:"pref_late"`        // late prefetches
	PollutionMisses uint64 `json:"pollution_misses"` // demand misses caused by the prefetcher
	DemandMisses    uint64 `json:"demand_misses"`    // all demand misses
}

// IntervalRecord captures one completed sampling interval for analysis:
// the inputs the boundary saw (raw and decayed counters), the metric
// values and their threshold classifications, the Table 2 case that fired,
// and the resulting counter and insertion-policy state.
type IntervalRecord struct {
	Accuracy  float64
	Lateness  float64
	Pollution float64
	Case      PolicyCase
	Level     int // level in effect for the next interval
	Insertion cache.InsertPos

	// Raw holds the in-interval event counts; Decayed holds the Equation 1
	// accumulated values after the boundary's halving fold — the numbers
	// the three metrics above were computed from.
	Raw     IntervalCounts
	Decayed IntervalCounts

	// AccClass, Late and Polluting are the threshold classifications that
	// selected Case from Table 2.
	AccClass  AccuracyClass
	Late      bool
	Polluting bool

	// BusUtilization is the fraction of the interval's cycles the shared
	// data bus was busy, as observed by the embedding simulator through
	// the OnSignals hook (zero in standalone core use).
	BusUtilization float64

	// LevelBefore is the Dynamic Configuration Counter value before this
	// boundary's update; Level is the value after (they are equal when the
	// update was NoChange, saturated, or dynamic aggressiveness is off).
	LevelBefore int
}

// FDP is the feedback engine. The memory hierarchy calls the On* hooks as
// events occur; FDP adjusts the prefetcher via the OnLevel callback and
// answers InsertionPos queries for prefetch fills.
type FDP struct {
	cfg    Config
	filter *PollutionFilter

	prefTotal      counter // prefetches sent to memory
	usedTotal      counter // useful prefetches
	lateTotal      counter // late prefetches
	pollutionTotal counter // demand misses caused by the prefetcher
	demandTotal    counter // demand misses
	evictions      uint64  // useful-block evictions this interval

	level     int
	insertion cache.InsertPos

	// Decider is the decision policy consulted at every interval boundary.
	// New installs the paper's Table 2 policy; replace it (before the
	// first interval closes) to evaluate an alternative controller. The
	// engine still owns when decisions apply: Level takes effect only
	// under DynamicAggressiveness and Insertion only under
	// DynamicInsertion, and Level is clamped to MinLevel..MaxLevel.
	Decider Decider

	// OnSignals, when set, may enrich the Signals value before it reaches
	// the Decider — the sim layer uses it to fill the bandwidth
	// observables the core cannot measure. Called synchronously from the
	// eviction path; it must be cheap and must not re-enter the engine.
	OnSignals func(s *Signals)

	// OnLevel, when set, is invoked with the new aggressiveness level at
	// each interval boundary (even if unchanged).
	OnLevel func(level int)

	// OnInterval, when set, receives every completed sampling interval's
	// record as it closes — the streaming counterpart of History. It is
	// called synchronously from the eviction path, so it must be cheap
	// and must not re-enter the engine.
	OnInterval func(rec IntervalRecord)

	// LevelDist and InsertDist feed Figures 6 and 8: the former counts
	// sampling intervals per counter value, the latter counts prefetch
	// insertions per stack position.
	LevelDist  *stats.Distribution
	InsertDist *stats.Distribution

	// History retains per-interval records when KeepHistory is set.
	KeepHistory bool
	History     []IntervalRecord

	intervals uint64

	// sig is the Signals scratch value rebuilt at each boundary; keeping
	// it on the (heap-allocated) engine lets OnSignals take its address
	// without forcing a per-interval heap escape.
	sig Signals
}

// New constructs the FDP engine.
func New(cfg Config) *FDP {
	if cfg.TInterval == 0 {
		cfg.TInterval = 8192
	}
	if cfg.InitLevel == 0 {
		cfg.InitLevel = 3
	}
	f := &FDP{
		cfg:       cfg,
		filter:    NewPollutionFilter(cfg.FilterBits),
		Decider:   paperDecider{th: cfg.Thresholds, accuracyOnly: cfg.AccuracyOnly},
		level:     cfg.InitLevel,
		insertion: cfg.StaticInsertion,
		LevelDist: stats.NewDistribution("level",
			"VeryConservative", "Conservative", "Middle", "Aggressive", "VeryAggressive"),
		InsertDist: stats.NewDistribution("insertion", "LRU", "LRU-4", "MID", "MRU"),
	}
	if cfg.DynamicInsertion {
		// The dynamic mechanism starts at MID (it never uses MRU).
		f.insertion = cache.PosMID
	}
	return f
}

// Config returns the configuration in use.
func (f *FDP) Config() Config { return f.cfg }

// Level returns the current Dynamic Configuration Counter value.
func (f *FDP) Level() int { return f.level }

// Intervals returns the number of completed sampling intervals.
func (f *FDP) Intervals() uint64 { return f.intervals }

// InsertionPos returns the LRU-stack position for the next prefetch fill
// and records it for the Figure 8 distribution.
func (f *FDP) InsertionPos() cache.InsertPos {
	f.InsertDist.Add(int(f.insertion))
	return f.insertion
}

// OnPrefetchSent counts a prefetch that went out on the memory bus.
func (f *FDP) OnPrefetchSent() { f.prefTotal.add(1) }

// OnPrefetchUsed counts a demand hit on a cached block with its pref-bit
// set (the hierarchy clears the bit).
func (f *FDP) OnPrefetchUsed() { f.usedTotal.add(1) }

// OnPrefetchLate counts a demand request that merged into an in-flight
// prefetch MSHR entry. Late prefetches are also useful — the demand wanted
// the block — so used-total is incremented as well, which keeps lateness
// bounded by 100% as in the paper's Figure 3.
func (f *FDP) OnPrefetchLate() {
	f.lateTotal.add(1)
	f.usedTotal.add(1)
}

// OnDemandMiss counts an L2 demand miss and attributes it to the
// prefetcher when the pollution filter has the block's signature set,
// reporting whether it did so.
func (f *FDP) OnDemandMiss(block uint64) bool {
	f.demandTotal.add(1)
	if f.filter.Test(block) {
		f.pollutionTotal.add(1)
		return true
	}
	return false
}

// OnPrefetchFill clears the block's pollution-filter bit when a prefetched
// block is inserted into the cache.
func (f *FDP) OnPrefetchFill(block uint64) { f.filter.Clear(block) }

// OnEviction is called for every valid block evicted from the L2. used is
// true when the victim had been referenced by a demand (its pref-bit was
// clear); demandFill is true when the victim was originally brought in by
// a demand miss rather than a prefetch; byPrefetch is true when the
// incoming fill that displaced it was a prefetch. Useful-block (used)
// evictions advance the sampling interval; only demand-filled victims
// displaced by prefetches arm the pollution filter (Section 3.1.3 — a
// used prefetch was still brought in by the prefetcher, so losing it is
// not pollution of demand-fetched data).
func (f *FDP) OnEviction(block uint64, used, demandFill, byPrefetch bool) {
	if demandFill && byPrefetch {
		f.filter.Set(block)
	}
	if used {
		f.evictions++
		if f.evictions >= f.cfg.TInterval {
			f.endInterval()
		}
	}
}

// endInterval applies Equation 1 to every counter, classifies the three
// metrics into a Signals value, consults the Decider, and applies its
// Decision to the prefetcher aggressiveness and insertion policy for the
// next interval (each gated by its Dynamic* config switch).
func (f *FDP) endInterval() {
	f.evictions = 0
	f.intervals++

	raw := IntervalCounts{
		PrefSent:        f.prefTotal.during,
		PrefUsed:        f.usedTotal.during,
		PrefLate:        f.lateTotal.during,
		PollutionMisses: f.pollutionTotal.during,
		DemandMisses:    f.demandTotal.during,
	}
	pref := f.prefTotal.roll()
	used := f.usedTotal.roll()
	late := f.lateTotal.roll()
	poll := f.pollutionTotal.roll()
	demand := f.demandTotal.roll()

	accuracy := safeDiv(used, pref)
	lateness := safeDiv(late, used)
	pollution := safeDiv(poll, demand)

	th := f.cfg.Thresholds
	var accClass AccuracyClass
	switch {
	case accuracy >= th.AHigh:
		accClass = AccHigh
	case accuracy >= th.ALow:
		accClass = AccMedium
	default:
		accClass = AccLow
	}
	isLate := lateness >= th.TLateness
	polluting := pollution >= th.TPollution

	f.sig = Signals{
		Interval:  f.intervals,
		Accuracy:  accuracy,
		Lateness:  lateness,
		Pollution: pollution,
		AccClass:  accClass,
		Late:      isLate,
		Polluting: polluting,
		Raw:       raw,
		Decayed: IntervalCounts{
			PrefSent:        pref,
			PrefUsed:        used,
			PrefLate:        late,
			PollutionMisses: poll,
			DemandMisses:    demand,
		},
		Level:     f.level,
		Insertion: f.insertion,
	}
	if f.OnSignals != nil {
		f.OnSignals(&f.sig)
	}
	d := f.Decider.Decide(f.sig)

	levelBefore := f.level
	if f.cfg.DynamicAggressiveness {
		f.level = ClampLevel(d.Level)
		if f.OnLevel != nil {
			f.OnLevel(f.level)
		}
	}
	if f.cfg.DynamicInsertion {
		f.insertion = d.Insertion
	}
	f.LevelDist.Add(f.level - 1)

	if f.KeepHistory || f.OnInterval != nil {
		rec := IntervalRecord{
			Accuracy:       accuracy,
			Lateness:       lateness,
			Pollution:      pollution,
			Case:           d.Case,
			Level:          f.level,
			Insertion:      f.insertion,
			Raw:            raw,
			Decayed:        f.sig.Decayed,
			AccClass:       accClass,
			Late:           isLate,
			Polluting:      polluting,
			BusUtilization: f.sig.BusUtilization,
			LevelBefore:    levelBefore,
		}
		if f.KeepHistory {
			f.History = append(f.History, rec)
		}
		if f.OnInterval != nil {
			f.OnInterval(rec)
		}
	}
}

// Insertion returns the stack position currently chosen for prefetch
// fills without recording it in the Figure 8 distribution.
func (f *FDP) Insertion() cache.InsertPos { return f.insertion }

func safeDiv(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	v := float64(n) / float64(d)
	if v > 1 {
		v = 1
	}
	return v
}
