package harness

import (
	"context"
	"fdpsim/internal/sim"
	"fdpsim/internal/workload"
)

// Per-stream adaptation study (footnote 8): the paper adjusts prefetcher
// behaviour globally, noting that per-stream adjustment "did not find much
// benefit". Here the per-stream alternative is a POWER4-style ramp: each
// tracking entry starts Very Conservative and earns aggressiveness (up to
// the global level) as its stream keeps producing demand accesses. The
// expectation is that ramping alone trims the junk short streams emit, and
// that stacking it on global FDP changes little — the footnote's finding.

func init() {
	registerExperiment("perstream", "Extension: per-stream ramping vs. global feedback (footnote 8)", runPerStream)
}

func runPerStream(ctx context.Context, p Params) ([]Table, error) {
	order := []string{cfgVA, "VA+Ramp", cfgFDP, "FDP+Ramp"}
	ramped := func(cfg sim.Config) sim.Config {
		cfg.PerStreamRamp = true
		return cfg
	}
	configs := map[string]sim.Config{
		cfgVA:      sim.Conventional(sim.PrefStream, 5),
		"VA+Ramp":  ramped(sim.Conventional(sim.PrefStream, 5)),
		cfgFDP:     sim.WithFDP(sim.PrefStream),
		"FDP+Ramp": ramped(sim.WithFDP(sim.PrefStream)),
	}
	ws := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}
	ipc := metricTable("Extension: per-stream ramping vs. global FDP — IPC",
		"paper footnote 8: per-stream adjustment gave no significant benefit over global adjustment",
		ws, order, g, ipcOf, f3, true)
	bpki := metricTable("Extension: per-stream ramping vs. global FDP — BPKI", "",
		ws, order, g, bpkiOf, f1, false)
	return []Table{ipc, bpki}, nil
}
