package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
)

// Ablation experiments for the design choices the paper fixes without
// exploring (Section 4.3 notes that tuning the thresholds, and the
// structures behind them, is out of its scope): classification-threshold
// sensitivity, sampling-interval length, pollution-filter size, and the
// bandwidth-constrained threshold adjustment the paper recommends for
// systems with higher bus contention.

func init() {
	registerExperiment("thresholds", "Ablation: sensitivity to the accuracy thresholds (Section 4.3)", runThresholds)
	registerExperiment("tinterval", "Ablation: sampling-interval length (Section 3.2)", runTInterval)
	registerExperiment("filtersize", "Ablation: pollution-filter size (Figure 4)", runFilterSize)
	registerExperiment("buswidth", "Ablation: bandwidth-constrained thresholds (Section 4.3)", runBusWidth)
}

// ablationWorkloads is a representative subset: a clean stream, the two
// prefetch losers, a phase alternator and a medium-gain irregular.
var ablationWorkloads = []string{"seqstream", "chaserand", "randsparse", "mixedphase", "spmv"}

// summarize runs FDP with a mutated configuration over the ablation
// subset and returns (gmean IPC, amean BPKI).
func summarize(ctx context.Context, p Params, mutate func(*sim.Config)) (float64, float64, error) {
	cfg := sim.WithFDP(sim.PrefStream)
	mutate(&cfg)
	configs := map[string]sim.Config{"x": cfg}
	g, err := RunAll(ctx, labeled(ablationWorkloads, configs, []string{"x"}, p), p)
	if err != nil {
		return 0, 0, err
	}
	var ipcs, bpkis []float64
	for _, w := range ablationWorkloads {
		r := g.MustGet(w, "x")
		ipcs = append(ipcs, r.IPC)
		bpkis = append(bpkis, r.BPKI)
	}
	return stats.GeoMean(ipcs), stats.ArithMean(bpkis), nil
}

func runThresholds(ctx context.Context, p Params) ([]Table, error) {
	t := Table{
		Title: "Ablation: FDP accuracy-threshold sensitivity (gmean IPC / amean BPKI over 5 workloads)",
		Note: "the paper uses untuned static thresholds and argues the mechanism is robust; " +
			"wider or narrower accuracy bands should move results only slightly",
		Header: []string{"A_low", "A_high", "IPC", "BPKI"},
	}
	for _, th := range [][2]float64{{0.20, 0.60}, {0.40, 0.75}, {0.40, 0.90}, {0.60, 0.90}} {
		lo, hi := th[0], th[1]
		ipc, bpki, err := summarize(ctx, p, func(c *sim.Config) {
			c.FDP.Thresholds.ALow = lo
			c.FDP.Thresholds.AHigh = hi
		})
		if err != nil {
			return nil, err
		}
		row := []string{f2(lo), f2(hi), f3(ipc), f1(bpki)}
		if lo == 0.40 && hi == 0.75 {
			row[1] += " (base)"
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

func runTInterval(ctx context.Context, p Params) ([]Table, error) {
	t := Table{
		Title: "Ablation: FDP sampling-interval length (gmean IPC / amean BPKI over 5 workloads)",
		Note: "short intervals adapt faster but on noisier estimates; the paper's 8192 " +
			"(half the L2's blocks) assumes 250M-instruction runs",
		Header: []string{"T_interval", "IPC", "BPKI", "intervals(chaserand)"},
	}
	for _, ti := range []uint64{256, 1024, 4096, 8192} {
		ipc, bpki, err := summarize(ctx, p, func(c *sim.Config) { c.FDP.TInterval = ti })
		if err != nil {
			return nil, err
		}
		// Pull the interval count for one hostile workload for context.
		cfg := p.apply(sim.WithFDP(sim.PrefStream))
		cfg.FDP.TInterval = ti
		cfg.Workload = "chaserand"
		g, err := RunAll(ctx, []RunSpec{{Workload: "chaserand", Config: "i", Job: sim.Job{Cfg: cfg}}}, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", ti), f3(ipc), f1(bpki),
			fmt.Sprintf("%d", g.MustGet("chaserand", "i").Intervals))
	}
	return []Table{t}, nil
}

func runFilterSize(ctx context.Context, p Params) ([]Table, error) {
	t := Table{
		Title: "Ablation: pollution-filter size (gmean IPC / amean BPKI over 5 workloads)",
		Note: "smaller filters alias more (overestimating pollution); the paper provisions " +
			"4096 bits",
		Header: []string{"filter bits", "IPC", "BPKI", "pollution(chaserand)"},
	}
	for _, bits := range []int{512, 1024, 4096, 16384} {
		ipc, bpki, err := summarize(ctx, p, func(c *sim.Config) { c.FDP.FilterBits = bits })
		if err != nil {
			return nil, err
		}
		cfg := p.apply(sim.WithFDP(sim.PrefStream))
		cfg.FDP.FilterBits = bits
		cfg.Workload = "chaserand"
		g, err := RunAll(ctx, []RunSpec{{Workload: "chaserand", Config: "f", Job: sim.Job{Cfg: cfg}}}, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", bits), f3(ipc), f1(bpki),
			pct(g.MustGet("chaserand", "f").Pollution))
	}
	return []Table{t}, nil
}

func runBusWidth(ctx context.Context, p Params) ([]Table, error) {
	// Section 4.3: "In systems where bandwidth contention is estimated to
	// be higher, A_high and A_low thresholds can be increased to restrict
	// the prefetcher from being too aggressive." Halve the bus bandwidth
	// and compare default thresholds against raised ones.
	t := Table{
		Title:  "Ablation: raised accuracy thresholds under a half-bandwidth bus (Section 4.3)",
		Note:   "with scarcer bandwidth, stricter accuracy demands should save BPKI at little IPC cost",
		Header: []string{"bus", "thresholds", "IPC", "BPKI"},
	}
	type variant struct {
		label    string
		transfer uint64 // cycles per block
		raise    bool
	}
	for _, v := range []variant{
		{"baseline (4.5 GB/s)", 57, false},
		{"half (2.25 GB/s)", 114, false},
		{"half (2.25 GB/s)", 114, true},
	} {
		th := "default"
		ipc, bpki, err := summarize(ctx, p, func(c *sim.Config) {
			c.DRAM.Transfer = v.transfer
			if v.raise {
				c.FDP.Thresholds.ALow = 0.60
				c.FDP.Thresholds.AHigh = 0.90
			}
		})
		if err != nil {
			return nil, err
		}
		if v.raise {
			th = "raised (0.60/0.90)"
		}
		t.AddRow(v.label, th, f3(ipc), f1(bpki))
	}
	return []Table{t}, nil
}
