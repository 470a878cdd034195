package sim

import (
	"fdpsim/internal/core"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/stats"
)

// DecisionEvent is one FDP interval boundary, fully explained: the event
// counters the boundary read (raw in-interval counts and the Equation 1
// decayed accumulations), the three metrics computed from them and their
// threshold classifications, the Table 2 case that fired, the Dynamic
// Configuration Counter before and after, the (distance, degree) pair the
// new counter value selects from Table 1, and the LRU-stack position
// chosen for the next interval's prefetch fills.
//
// Every field is a value (the two strings point at static data), so
// building and delivering an event allocates nothing; field names are
// stable JSON identifiers for the JSONL trace format (see internal/obs).
type DecisionEvent struct {
	// Core identifies the emitting core in multi-core runs (0 otherwise).
	Core int `json:"core"`
	// Interval is the 1-based index of the sampling interval that closed.
	Interval uint64 `json:"interval"`
	// Cycle and Retired stamp the boundary in simulated time (post-warmup,
	// matching Result; zero while warming up). Retired/Cycle is the run's
	// IPC so far.
	Cycle   uint64 `json:"cycle"`
	Retired uint64 `json:"retired"`

	// Raw holds the event counts of this interval alone; Decayed holds the
	// Equation 1 accumulations (previous value halved plus Raw) that the
	// metrics below were computed from.
	Raw     core.IntervalCounts `json:"raw"`
	Decayed core.IntervalCounts `json:"decayed"`

	// The three feedback metrics at this boundary.
	Accuracy  float64 `json:"accuracy"`
	Lateness  float64 `json:"lateness"`
	Pollution float64 `json:"pollution"`

	// Threshold classifications: AccuracyClass is "Low", "Medium" or
	// "High"; Late and Polluting are the lateness/pollution cutoffs.
	AccuracyClass string `json:"accuracy_class"`
	Late          bool   `json:"late"`
	Polluting     bool   `json:"polluting"`

	// Controller names the feedback policy that took this decision
	// ("fdp" unless Config.Controller selected a competitor); BusUtil is
	// the fraction of the interval's cycles the shared data bus was busy
	// — the bandwidth signal controllers such as dspatch-dual key on.
	Controller string  `json:"controller"`
	BusUtil    float64 `json:"bus_util"`

	// Case is the Table 2 row (1..12) selected by the classifications (0
	// for decisions taken by a non-paper controller), Update its counter
	// adjustment (-1, 0, +1) and Reason the controller's rationale.
	Case   int    `json:"case"`
	Update int    `json:"update"`
	Reason string `json:"reason"`

	// DCCBefore and DCCAfter are the Dynamic Configuration Counter around
	// the update (equal when the update was NoChange, saturated, or
	// dynamic aggressiveness is off).
	DCCBefore int `json:"dcc_before"`
	DCCAfter  int `json:"dcc_after"`
	// Distance and Degree are the aggressiveness parameters in effect for
	// the next interval: those DCCAfter selects (Table 1 for stream-style
	// prefetchers; the GHB ladder uses one value for both), or the pinned
	// level's when Config.StaticLevel fixes the prefetcher's.
	Distance int `json:"distance"`
	Degree   int `json:"degree"`

	// Insertion is the LRU-stack position chosen for prefetch fills until
	// the next boundary: "MRU", "MID", "LRU-4" or "LRU".
	Insertion string `json:"insertion"`

	// Sample is the interval's cycle-accounting and bandwidth-attribution
	// delta, populated when Config.Attribution is set. Zero — and omitted
	// from the JSONL encoding, keeping non-attribution traces byte-
	// identical — otherwise.
	Sample stats.IntervalSample `json:"sample,omitzero"`
}

// Tracer receives one DecisionEvent per FDP interval boundary. It is
// called synchronously from the simulation loop (never concurrently for
// one core), so implementations must be cheap or hand off — internal/obs
// provides the file and in-memory sinks. A nil tracer
// costs nothing on the hot path (guarded by BenchmarkTraceDecision and
// TestTraceDecisionAllocs).
type Tracer interface {
	TraceDecision(ev DecisionEvent)
}

// TracerFunc adapts an ordinary function to a Tracer.
type TracerFunc func(ev DecisionEvent)

// TraceDecision implements Tracer by calling f(ev).
func (f TracerFunc) TraceDecision(ev DecisionEvent) { f(ev) }

// levelParams maps a Dynamic Configuration Counter value to the prefetch
// (distance, degree) it configures for the given prefetcher kind.
func levelParams(kind PrefetcherKind, level int) (distance, degree int) {
	if level < prefetch.MinLevel {
		level = prefetch.MinLevel
	}
	if level > prefetch.MaxLevel {
		level = prefetch.MaxLevel
	}
	if kind == PrefGHB {
		d := prefetch.GHBDegrees[level]
		return d, d
	}
	sl := prefetch.StreamLevels[level]
	return sl.Distance, sl.Degree
}

// traceDecision builds one DecisionEvent from a closed interval's record
// and delivers it to the configured tracer, which the caller has checked
// is set. cycle and retired are the post-warmup stamps (zero during
// warmup); sample is the interval's attribution delta (zero when
// attribution is off). The event is stack-built and passed by value, so
// the call is allocation-free.
func (h *hierarchy) traceDecision(rec core.IntervalRecord, cycle, retired uint64, sample stats.IntervalSample) {
	level := rec.Level // the DCC drives the prefetcher...
	if h.cfg.StaticLevel > 0 && h.pf != nil {
		level = h.pf.Level() // ...unless its level is pinned
	}
	distance, degree := levelParams(h.cfg.Prefetcher, level)
	h.cfg.Tracer.TraceDecision(DecisionEvent{
		Core:          h.coreID,
		Interval:      h.fdp.Intervals(),
		Cycle:         cycle,
		Retired:       retired,
		Raw:           rec.Raw,
		Decayed:       rec.Decayed,
		Accuracy:      rec.Accuracy,
		Lateness:      rec.Lateness,
		Pollution:     rec.Pollution,
		AccuracyClass: rec.AccClass.String(),
		Late:          rec.Late,
		Polluting:     rec.Polluting,
		Controller:    h.ctrlName,
		BusUtil:       rec.BusUtilization,
		Case:          rec.Case.Case,
		Update:        int(rec.Case.Update),
		Reason:        rec.Case.Reason,
		DCCBefore:     rec.LevelBefore,
		DCCAfter:      rec.Level,
		Distance:      distance,
		Degree:        degree,
		Insertion:     rec.Insertion.String(),
		Sample:        sample,
	})
}
