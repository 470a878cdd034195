package harness

import (
	"context"
	"strings"

	"fdpsim/internal/control"
	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

// Controller shoot-out: every registered feedback decision policy —
// the paper's Table 2 ("fdp"), the five static levels it competes
// against, a DSPatch-style bandwidth-aware dual-mode policy, and the
// trained decision tree — head to head on the same workloads, same
// prefetcher, same sizing. The merged table answers the question the
// paper's Section 5 asks of FDP itself: does the policy buy IPC
// without spending the bus?

func init() {
	registerExperiment("controllers", "Controller shoot-out: Table 2 vs. static and learned policies", runControllers)
}

func runControllers(ctx context.Context, p Params) ([]Table, error) {
	infos := control.List()
	order := make([]string, len(infos))
	configs := make(map[string]sim.Config, len(infos))
	for i, info := range infos {
		order[i] = info.Name
		cfg := withAttr(sim.WithFDP(sim.PrefStream))
		cfg.Controller = info.Name
		configs[info.Name] = cfg
	}
	ws := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}

	ipc := metricTable("IPC by controller (stream prefetcher, full feedback loop)",
		"the paper's fdp column is the Table 2 policy; static-N pins the level, tree imitates fdp from logged decisions",
		ws, order, g, func(r sim.Result) float64 { return r.IPC }, f3, true)

	bpki := metricTable("Bus traffic by controller (BPKI: bus accesses per 1000 instructions)",
		"lower is cheaper; an aggressive policy that wins IPC here pays for it below",
		ws, order, g, func(r sim.Result) float64 { return r.BPKI }, f2, false)

	busUtil := metricTable("Bus utilization by controller (data-bus occupancy / cycles)",
		"the bandwidth-efficiency axis: dspatch-dual throttles toward accuracy as this saturates",
		ws, order, g, func(r sim.Result) float64 { return attrOf(r).BusUtilization() }, pct, false)

	// The merged head-to-head: one row per controller, workloads averaged,
	// so the IPC-vs-bandwidth trade every policy makes is one line.
	merged := Table{
		Title:  "Controller head-to-head (averaged over the memory-intensive set)",
		Note:   "gmean IPC vs. amean bandwidth: the paper's claim is fdp holds the first column while shrinking the other two",
		Header: []string{"controller", "tags", "IPC", "BPKI", "bus-util", "final-level"},
	}
	for _, info := range infos {
		var ipcs, bpkis, utils, levels []float64
		for _, w := range ws {
			r := g.MustGet(w, info.Name)
			ipcs = append(ipcs, r.IPC)
			bpkis = append(bpkis, r.BPKI)
			utils = append(utils, attrOf(r).BusUtilization())
			levels = append(levels, float64(r.FinalLevel))
		}
		merged.AddRow(info.Name, strings.Join(info.Tags, ","),
			f3(stats.GeoMean(ipcs)), f2(stats.ArithMean(bpkis)),
			pct(stats.ArithMean(utils)), f1(stats.ArithMean(levels)))
	}

	return []Table{merged, ipc, bpki, busUtil}, nil
}
