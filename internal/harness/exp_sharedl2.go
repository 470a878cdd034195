package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/sim"
)

// Shared-L2 study (Section 4.3): "In systems with higher contention for
// the L2 cache space (e.g. ... many threads sharing the same L2),
// reducing the values of T_pollution, P_high or P_low may be desirable to
// reduce the cache pollution due to prefetching." Two threads share one
// hierarchy here — a stream that loves prefetching next to a
// cache-sensitive thread its junk can hurt — comparing conventional
// prefetching, FDP with default thresholds, and FDP with the reduced
// pollution thresholds the paper recommends.

func init() {
	registerExperiment("sharedl2", "Extension: threads sharing one L2, reduced pollution thresholds (Section 4.3)", runSharedL2)
}

func runSharedL2(ctx context.Context, p Params) ([]Table, error) {
	pairs := [][2]string{
		{"seqstream", "hotcold"},
		{"seqstream", "chaserand"},
		{"multistream", "mixedphase"},
	}
	type variant struct {
		name   string
		mutate func(*sim.Config)
	}
	variants := []variant{
		{"VeryAggr", func(c *sim.Config) { *c = sim.Conventional(sim.PrefStream, 5) }},
		{"FDP", func(c *sim.Config) { *c = sim.WithFDP(sim.PrefStream) }},
		{"FDP reduced-poll", func(c *sim.Config) {
			*c = sim.WithFDP(sim.PrefStream)
			c.FDP.Thresholds.TPollution /= 2
			c.FDP.Thresholds.PLow /= 2
			c.FDP.Thresholds.PHigh /= 2
		}},
	}
	t := Table{
		Title: "Extension: two threads sharing one L2 + prefetcher + FDP engine",
		Note: "Section 4.3 advises reducing the pollution thresholds when threads share the L2; " +
			"per-thread IPC, shared-hierarchy BPKI",
		Header: []string{"threads", "config", "IPC(t0)", "IPC(t1)", "aggregate", "BPKI", "pollution"},
	}
	for _, pair := range pairs {
		for _, v := range variants {
			var base sim.Config
			v.mutate(&base)
			base = p.apply(base)
			base.WarmupInsts = 0 // unsupported in SMT mode
			base.MaxInsts = p.Insts / 2
			res, err := sim.RunSMTContext(ctx, sim.SMTConfig{Base: base, Workloads: pair[:]})
			if err != nil {
				return nil, fmt.Errorf("%v/%s: %w", pair, v.name, err)
			}
			t.AddRow(pair[0]+"+"+pair[1], v.name,
				f3(res.Threads[0].IPC), f3(res.Threads[1].IPC),
				f3(res.AggregateIPC()), f1(res.BPKI), pct(res.Pollution))
		}
	}
	return []Table{t}, nil
}
