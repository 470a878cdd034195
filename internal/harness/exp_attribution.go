package harness

import (
	"context"

	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

// Cycle-accounting and bandwidth-attribution experiment: where do the
// cycles and the bus go under no prefetching, a very aggressive
// conventional prefetcher, and FDP? The paper argues FDP's win is
// bandwidth-efficiency, not just IPC — this experiment shows the claim
// in the telemetry: bus utilization, per-kind occupancy, and the
// top-down stall breakdown.

func init() {
	registerExperiment("cycleacct", "Cycle accounting and bandwidth attribution (DESIGN.md observability)", runCycleAcct)
}

// withAttr enables the attribution layer on a configuration.
func withAttr(cfg sim.Config) sim.Config {
	cfg.Attribution = true
	return cfg
}

// attrOf returns the result's attribution block (the experiment enables
// it on every configuration, so a missing block is a harness bug).
func attrOf(r sim.Result) *stats.Attribution {
	if r.Attribution == nil {
		panic("harness: cycleacct result has no attribution block")
	}
	return r.Attribution
}

func runCycleAcct(ctx context.Context, p Params) ([]Table, error) {
	ws := workload.MemoryIntensive()
	g, order, err := runGrid(ctx, p, ws, []column{
		{cfgNoPref, withAttr(sim.Default())},
		{cfgVA, withAttr(sim.Conventional(sim.PrefStream, 5))},
		{cfgFDP, withAttr(sim.WithFDP(sim.PrefStream))},
	})
	if err != nil {
		return nil, err
	}

	busUtil := metricTable("Bus utilization (data-bus occupancy / cycles)",
		"FDP should sit between NoPref and VeryAggr: it spends bus cycles only where feedback says prefetching pays",
		ws, order, g, func(r sim.Result) float64 { return attrOf(r).BusUtilization() }, pct, false)

	prefShare := metricTable("Prefetch share of bus occupancy",
		"of the cycles the bus is busy, how many carry prefetch traffic",
		ws, order[1:], g, func(r sim.Result) float64 {
			a := attrOf(r)
			if occ := a.BusOccupancy(); occ > 0 {
				return float64(a.BusPrefetchCycles) / float64(occ)
			}
			return 0
		}, pct, false)

	memStall := metricTable("Memory-stall share of cycles (load-miss + ROB-full + DRAM-backpressure)",
		"the top-down \"memory bound\" fraction; effective prefetching converts these cycles to retire cycles",
		ws, order, g, func(r sim.Result) float64 {
			b := attrOf(r).Cycles
			return b.Share(b.StallLoadMiss + b.StallROBFull + b.StallDRAMBP)
		}, pct, false)

	breakdown := Table{
		Title: "Top-down stall breakdown under FDP (percent of post-warmup cycles)",
		Note:  "rows sum to 100%: every cycle lands in exactly one bucket",
		Header: []string{"workload", "retire-full", "retire-part", "load-miss",
			"rob-full", "dram-bp", "ifetch", "frontend", "bus-util", "row-hit"},
	}
	for _, w := range ws {
		a := attrOf(g.MustGet(w, cfgFDP))
		b := a.Cycles
		breakdown.AddRow(w,
			pct(b.Share(b.RetireFull)), pct(b.Share(b.RetirePartial)),
			pct(b.Share(b.StallLoadMiss)), pct(b.Share(b.StallROBFull)),
			pct(b.Share(b.StallDRAMBP)), pct(b.Share(b.StallIFetch)),
			pct(b.Share(b.StallFrontend)),
			pct(a.BusUtilization()), pct(a.RowHitRate()))
	}

	pressure := Table{
		Title: "Memory-system pressure and prefetch timeliness under FDP",
		Note:  "occupancy means are per-cycle samples; fill-to-use/late-by are log-bucket quantile upper bounds in cycles",
		Header: []string{"workload", "mshr-mean", "dramq-mean", "row-hit",
			"fill-to-use p50", "fill-to-use p90", "late-by p50", "unused-pref"},
	}
	for _, w := range ws {
		a := attrOf(g.MustGet(w, cfgFDP))
		queueMean := (float64(a.QueueDemand.Total())*a.QueueDemand.Mean() +
			float64(a.QueuePrefetch.Total())*a.QueuePrefetch.Mean() +
			float64(a.QueueWriteback.Total())*a.QueueWriteback.Mean()) /
			float64(a.QueueDemand.Total()+a.QueuePrefetch.Total()+a.QueueWriteback.Total())
		pressure.AddRow(w,
			f2(a.MSHROcc.Mean()), f2(queueMean), pct(a.RowHitRate()),
			u64(a.FillToUse.Quantile(0.5)), u64(a.FillToUse.Quantile(0.9)),
			u64(a.LateBy.Quantile(0.5)), u64(a.PrefUnused))
	}

	return []Table{busUtil, prefShare, memStall, breakdown, pressure}, nil
}
