package control

import (
	"fmt"

	"fdpsim/internal/core"
)

// fdpController is the paper's policy behind the Controller interface.
// It delegates to core.PaperDecision — the same function the bare engine
// uses when no controller is injected — so selecting "fdp" explicitly is
// bit-identical to the default path (TestFDPControllerEquivalence pins
// this, and the engine-golden suite pins it end to end).
type fdpController struct {
	th           core.Thresholds
	accuracyOnly bool
}

func (c fdpController) Name() string { return "fdp" }

func (c fdpController) Decide(s Signals) Decision {
	return core.PaperDecision(s, c.th, c.accuracyOnly)
}

// staticController pins the aggressiveness level — the paper's Section 5
// static baselines (Very Conservative .. Very Aggressive) — while
// keeping the pollution-directed insertion policy, so a static-N run
// isolates the aggressiveness axis from the insertion axis.
type staticController struct {
	level int
	th    core.Thresholds
	pc    core.PolicyCase
}

func staticBuilder(level int) func(p Params) (Controller, error) {
	return func(p Params) (Controller, error) {
		return staticController{
			level: level,
			th:    p.Thresholds,
			pc: core.PolicyCase{
				Update: core.NoChange,
				Reason: fmt.Sprintf("static baseline: hold level %d", level),
			},
		}, nil
	}
}

func (c staticController) Name() string { return fmt.Sprintf("static-%d", c.level) }

func (c staticController) Decide(s Signals) Decision {
	return Decision{
		Level:     c.level,
		Insertion: core.InsertionFor(s.Pollution, c.th.PLow, c.th.PHigh),
		Case:      c.pc,
	}
}

// dspatchController adapts DSPatch's central idea (Bera et al., MICRO
// 2019) to aggressiveness throttling: maintain two biases — a
// coverage-biased mode that ramps the prefetcher up while memory
// bandwidth has headroom, and an accuracy-biased mode that throttles
// down when the bus is near saturation — and switch between them on the
// measured bus occupancy. In the middle band it defers to the paper's
// Table 2 policy, so it degrades gracefully to FDP when bandwidth
// pressure is unremarkable (or unobserved: standalone core use reports
// zero utilization, which lands in coverage mode only if genuinely
// idle... zero reads as headroom, matching DSPatch's optimistic default).
type dspatchController struct {
	th           core.Thresholds
	accuracyOnly bool
}

// Bus-occupancy mode thresholds. DSPatch switches bias on DRAM bandwidth
// quartiles; with a single shared bus we use the measured busy fraction:
// below headroomUtil the bus is considered idle enough to chase
// coverage, above saturatedUtil accuracy is all that matters.
const (
	headroomUtil  = 0.40
	saturatedUtil = 0.75
)

var (
	dspatchCoverageCase = core.PolicyCase{
		Update: core.Increment,
		Reason: "coverage bias: bus headroom",
	}
	dspatchCoverageHoldCase = core.PolicyCase{
		Update: core.NoChange,
		Reason: "coverage bias: holding (low accuracy)",
	}
	dspatchAccuracyCase = core.PolicyCase{
		Update: core.Decrement,
		Reason: "accuracy bias: bus saturated",
	}
	dspatchAccuracyHoldCase = core.PolicyCase{
		Update: core.NoChange,
		Reason: "accuracy bias: holding (accurate, clean)",
	}
)

func (c dspatchController) Name() string { return "dspatch-dual" }

func (c dspatchController) Decide(s Signals) Decision {
	ins := core.InsertionFor(s.Pollution, c.th.PLow, c.th.PHigh)
	switch {
	case s.BusUtilization < headroomUtil:
		// Coverage-biased: bandwidth is cheap, so ramp up unless the
		// prefetcher is demonstrably wasting it.
		if s.AccClass == core.AccLow && !s.Late {
			return Decision{Level: s.Level, Insertion: ins, Case: dspatchCoverageHoldCase}
		}
		return Decision{Level: core.ClampLevel(s.Level + 1), Insertion: ins, Case: dspatchCoverageCase}
	case s.BusUtilization >= saturatedUtil:
		// Accuracy-biased: every wasted transfer delays a demand. Only a
		// highly accurate, non-polluting prefetcher keeps its level.
		if s.AccClass == core.AccHigh && !s.Polluting {
			return Decision{Level: s.Level, Insertion: ins, Case: dspatchAccuracyHoldCase}
		}
		return Decision{Level: core.ClampLevel(s.Level - 1), Insertion: ins, Case: dspatchAccuracyCase}
	default:
		return core.PaperDecision(s, c.th, c.accuracyOnly)
	}
}
