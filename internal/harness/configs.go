package harness

import (
	"context"

	"fdpsim/internal/cache"
	"fdpsim/internal/sim"
)

// Configuration labels shared across experiments (the paper's legend).
const (
	cfgNoPref  = "NoPref"
	cfgVC      = "VeryCons"
	cfgCons    = "Cons"
	cfgMid     = "Middle"
	cfgAggr    = "Aggr"
	cfgVA      = "VeryAggr"
	cfgDynAggr = "DynAggr"
	cfgDynIns  = "VA+DynIns"
	cfgFDP     = "FDP"
	cfgAccOnly = "AccuracyOnly"
)

// dynAggr enables only Dynamic Aggressiveness (Section 5.1): feedback
// throttling with the baseline MRU insertion.
func dynAggr(kind sim.PrefetcherKind) sim.Config {
	cfg := sim.WithFDP(kind)
	cfg.FDP.DynamicInsertion = false
	cfg.FDP.StaticInsertion = cache.PosMRU
	return cfg
}

// dynIns enables only Dynamic Insertion (Section 5.2) on a very
// aggressive conventional prefetcher.
func dynIns(kind sim.PrefetcherKind) sim.Config {
	cfg := sim.Conventional(kind, 5)
	cfg.FDP.DynamicInsertion = true
	return cfg
}

// staticIns pins a very aggressive prefetcher with a static insertion
// position (Figure 7's comparison points).
func staticIns(kind sim.PrefetcherKind, pos cache.InsertPos) sim.Config {
	cfg := sim.Conventional(kind, 5)
	cfg.FDP.StaticInsertion = pos
	return cfg
}

// accuracyOnly is the Section 5.6 ablation.
func accuracyOnly(kind sim.PrefetcherKind) sim.Config {
	cfg := sim.WithFDP(kind)
	cfg.FDP.AccuracyOnly = true
	return cfg
}

// withPrefCache adds a separate prefetch cache of the given size to a very
// aggressive conventional prefetcher (Figures 11 and 12). A size of 2 KB
// is fully associative, larger sizes are 16-way, as in the paper.
func withPrefCache(kind sim.PrefetcherKind, kbytes int) sim.Config {
	cfg := sim.Conventional(kind, 5)
	cfg.PrefCacheBlocks = kbytes * 1024 / 64
	if kbytes <= 2 {
		cfg.PrefCacheWays = 0 // fully associative
	} else {
		cfg.PrefCacheWays = 16
	}
	return cfg
}

// column is one configuration of an experiment's grid: the label its
// tables print and the configuration its cells run.
type column struct {
	label string
	cfg   sim.Config
}

// ladder is Table 5's columns on one prefetcher: no prefetching, the
// Very Conservative, Middle and Very Aggressive static levels, and FDP.
func ladder(kind sim.PrefetcherKind) []column {
	return []column{
		{cfgNoPref, sim.Default()},
		{cfgVC, sim.Conventional(kind, 1)},
		{cfgMid, sim.Conventional(kind, 3)},
		{cfgVA, sim.Conventional(kind, 5)},
		{cfgFDP, sim.WithFDP(kind)},
	}
}

// cells builds the (workload x column) cross product.
func cells(workloads []string, cols []column, p Params) []RunSpec {
	specs := make([]RunSpec, 0, len(workloads)*len(cols))
	for _, w := range workloads {
		for _, c := range cols {
			cfg := p.apply(c.cfg)
			cfg.Workload = w
			specs = append(specs, RunSpec{Workload: w, Config: c.label, Job: sim.Job{Cfg: cfg}})
		}
	}
	return specs
}

// runGrid runs every (workload x column) cell in one RunAll and returns
// the grid with the column labels in order.
func runGrid(ctx context.Context, p Params, workloads []string, cols []column) (*Grid, []string, error) {
	order := make([]string, len(cols))
	for i, c := range cols {
		order[i] = c.label
	}
	g, err := RunAll(ctx, cells(workloads, cols, p), p)
	return g, order, err
}
