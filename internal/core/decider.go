package core

import "fdpsim/internal/cache"

// Aggressiveness level bounds: the Dynamic Configuration Counter is a
// 3-bit saturating counter clamped to the five Table 1 configurations.
const (
	MinLevel = 1
	MaxLevel = 5
)

// Signals is everything a feedback policy may observe at one sampling
// interval boundary: the three Section 3 metrics with their threshold
// classifications, the raw and Equation 1-decayed event counters they
// were computed from, the current aggressiveness level and insertion
// position, and — when the engine is embedded in the full simulator —
// the bandwidth observables of the attribution layer (bus occupancy by
// transaction kind over the interval). Standalone core use leaves the
// bandwidth fields zero; the sim layer fills them through FDP.OnSignals
// before the decision is taken.
//
// Signals is a plain value: building and passing one allocates nothing,
// which keeps the per-interval decision path heap-free (see
// TestDecideAllocs in internal/control).
type Signals struct {
	// Interval is the 1-based index of the sampling interval that closed.
	Interval uint64

	// The three feedback metrics of Section 3.1, computed from the
	// decayed counters, each clamped to [0, 1].
	Accuracy  float64
	Lateness  float64
	Pollution float64

	// Threshold classifications against Thresholds (Section 4.3): the
	// inputs of the paper's Table 2 lookup.
	AccClass  AccuracyClass
	Late      bool
	Polluting bool

	// Raw holds this interval's event counts alone; Decayed the
	// Equation 1 accumulations the metrics above were computed from.
	Raw     IntervalCounts
	Decayed IntervalCounts

	// Level and Insertion are the aggressiveness level and LRU-stack
	// insertion position in effect while the interval ran — the state a
	// policy adjusts.
	Level     int
	Insertion cache.InsertPos

	// Bandwidth observables, filled by the sim layer (zero in standalone
	// core use): how many cycles the interval spanned, how many of them
	// the shared data bus was occupied (split out for prefetch traffic),
	// and the resulting utilization in [0, 1]. These are the signals the
	// DSPatch-style and learned controllers key on.
	IntervalCycles    uint64
	BusBusyCycles     uint64
	BusPrefetchCycles uint64
	BusUtilization    float64
}

// Decision is a feedback policy's output for the next interval: the
// aggressiveness level (clamped by the engine to MinLevel..MaxLevel) and
// the LRU-stack position for prefetch fills, plus the PolicyCase that
// explains the choice — the Table 2 row for the paper policy, a
// synthesized rationale (Case 0) for other controllers. The engine
// applies Level only under DynamicAggressiveness and Insertion only
// under DynamicInsertion, so a policy never overrides a static
// configuration.
type Decision struct {
	Level     int
	Insertion cache.InsertPos
	Case      PolicyCase
}

// Decider is the pluggable decision-policy seam: an FDP engine with a
// Decider set calls Decide at every sampling interval boundary,
// synchronously from the eviction path (without one it calls
// PaperDecision directly). Implementations must be cheap,
// allocation-free, and must not re-enter the engine. internal/control
// implements the registry of named controllers (the paper's Table 2
// policy, static baselines, and learned competitors) behind this
// interface.
type Decider interface {
	Decide(s Signals) Decision
}

// ClampLevel saturates a level into the MinLevel..MaxLevel range, the
// 3-bit Dynamic Configuration Counter's behavior.
func ClampLevel(level int) int {
	if level < MinLevel {
		return MinLevel
	}
	if level > MaxLevel {
		return MaxLevel
	}
	return level
}

// PaperDecision is the paper's complete feedback policy as a pure
// function: the Table 2 aggressiveness adjustment selected by the
// classified signals (or the Section 5.6 accuracy-only ablation when
// accuracyOnly is set) plus the Section 3.3.2 pollution-directed
// insertion position. This is the single source of truth for the default
// behavior: the engine calls it directly when no Decider is set, and
// internal/control's "fdp" controller delegates here, so the pluggable
// seam cannot drift from the hard-wired policy it replaced.
func PaperDecision(s Signals, th Thresholds, accuracyOnly bool) Decision {
	pc := LookupPolicy(s.AccClass, s.Late, s.Polluting)
	update := pc.Update
	if accuracyOnly {
		// Section 5.6 ablation: accuracy alone steers the counter.
		switch s.AccClass {
		case AccHigh:
			update = Increment
		case AccLow:
			update = Decrement
		default:
			update = NoChange
		}
	}
	return Decision{
		Level:     ClampLevel(s.Level + int(update)),
		Insertion: InsertionFor(s.Pollution, th.PLow, th.PHigh),
		Case:      pc,
	}
}
