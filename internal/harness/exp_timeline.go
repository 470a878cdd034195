package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/core"
	"fdpsim/internal/sim"
)

// Adaptation timeline: the decision trace behind Figure 6. Running FDP on
// the phase-alternating workload and dumping every sampling interval shows
// the mechanism riding the phase changes: streaming phases classify as
// high-accuracy/late (Table 2 cases 1-2, ramp up), hostile phases as
// low-accuracy/polluting (cases 10/12, ramp down and insert at LRU).

func init() {
	registerExperiment("timeline", "Extension: FDP interval-by-interval adaptation trace (mixedphase)", runTimeline)
}

func runTimeline(ctx context.Context, p Params) ([]Table, error) {
	// A memo hit replays no intervals, so the cell always simulates.
	p.Memo = nil
	var events []sim.DecisionEvent
	cfg := sim.WithFDP(sim.PrefStream)
	cfg.Tracer = sim.TracerFunc(func(ev sim.DecisionEvent) { events = append(events, ev) })
	g, _, err := runGrid(ctx, p, []string{"mixedphase"}, []column{{cfgFDP, cfg}})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Extension: FDP sampling-interval trace on mixedphase",
		Note: fmt.Sprintf("%d intervals over %d instructions; the Table 2 case column shows which rule fired",
			g.MustGet("mixedphase", cfgFDP).Intervals, p.Insts),
		Header: []string{"interval", "accuracy", "lateness", "pollution", "case", "update", "level", "insertion"},
	}
	limit := len(events)
	if limit > 64 {
		limit = 64 // keep the table printable; the shape shows quickly
	}
	for i := 0; i < limit; i++ {
		ev := events[i]
		t.AddRow(
			fmt.Sprintf("%d", ev.Interval),
			pct(ev.Accuracy), pct(ev.Lateness), pct(ev.Pollution),
			fmt.Sprintf("%d", ev.Case),
			core.CounterUpdate(ev.Update).String(),
			fmt.Sprintf("%d", ev.DCCAfter),
			ev.Insertion,
		)
	}
	if limit == 0 {
		t.AddRow("(none)", "-", "-", "-", "-", "-", "-",
			"run longer or lower -tinterval: no interval completed")
	}
	if limit < len(events) {
		t.AddRow("...", "", "", "", "", "", "", "")
	}
	return []Table{t}, nil
}
