package harness

import (
	"fdpsim/internal/cache"
	"fdpsim/internal/core"
	"fdpsim/internal/sim"
	"fdpsim/internal/workload/spec"
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

// noPref is the Table 3 baseline without a prefetcher.
func noPref() sim.Config { return sim.Default() }

// static returns a conventional prefetcher pinned at a Table 1 level.
func static(kind sim.PrefetcherKind, level int) sim.Config {
	return sim.Conventional(kind, level)
}

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
	cfg := static(kind, 5)
	cfg.FDP.DynamicInsertion = true
	return cfg
}

// staticIns pins a very aggressive prefetcher with a static insertion
// position (Figure 7's comparison points).
func staticIns(kind sim.PrefetcherKind, pos cache.InsertPos) sim.Config {
	cfg := static(kind, 5)
	cfg.FDP.StaticInsertion = pos
	return cfg
}

// fullFDP enables both mechanisms (the paper's headline configuration).
func fullFDP(kind sim.PrefetcherKind) sim.Config { return sim.WithFDP(kind) }

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
	cfg := static(kind, 5)
	cfg.PrefCacheBlocks = kbytes * 1024 / 64
	if kbytes <= 2 {
		cfg.PrefCacheWays = 0 // fully associative
	} else {
		cfg.PrefCacheWays = 16
	}
	return cfg
}

// labeled builds the (workload x config) cross product.
func labeled(workloads []string, configs map[string]sim.Config, order []string, p Params) []RunSpec {
	specs := make([]RunSpec, 0, len(workloads)*len(order))
	for _, w := range workloads {
		for _, c := range order {
			cfg := p.apply(configs[c])
			cfg.Workload = w
			specs = append(specs, RunSpec{Workload: w, Config: c, Job: sim.Job{Cfg: cfg}})
		}
	}
	return specs
}

// SpecGrid builds the (WorkloadSpec x config) cross product: the
// declarative counterpart of labeled, so ad-hoc workload specs fan out
// over the same experiment machinery as the built-in benchmark names.
// Each cell is keyed by (spec name, config label) in the result grid.
// Only single-lane specs are runnable by the single-core worker; RunAll
// surfaces the run's error for multi-lane ones.
func SpecGrid(workloads []*spec.Spec, configs map[string]sim.Config, order []string, p Params) []RunSpec {
	specs := make([]RunSpec, 0, len(workloads)*len(order))
	for _, sp := range workloads {
		for _, c := range order {
			cfg := p.apply(configs[c])
			cfg.Workload = sp.Name
			specs = append(specs, RunSpec{Workload: sp.Name, Config: c, Job: sim.Job{Cfg: cfg, Spec: sp}})
		}
	}
	return specs
}

// defaultFDPConfig exposes the FDP defaults for the static tables.
func defaultFDPConfig() core.Config { return core.DefaultConfig() }
