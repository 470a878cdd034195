package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/sim"
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

// fdpColumn is a stream FDP column with set applied.
func fdpColumn(label string, set func(*sim.Config)) column {
	cfg := sim.WithFDP(sim.PrefStream)
	set(&cfg)
	return column{label, cfg}
}

func runThresholds(ctx context.Context, p Params) ([]Table, error) {
	ths := [][2]float64{{0.20, 0.60}, {0.40, 0.75}, {0.40, 0.90}, {0.60, 0.90}}
	var cols []column
	for _, th := range ths {
		cols = append(cols, fdpColumn(f2(th[0])+"/"+f2(th[1]), func(c *sim.Config) {
			c.FDP.Thresholds.ALow, c.FDP.Thresholds.AHigh = th[0], th[1]
		}))
	}
	g, order, err := runGrid(ctx, p, ablationWorkloads, cols)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Ablation: FDP accuracy-threshold sensitivity (gmean IPC / amean BPKI over 5 workloads)",
		Note: "the paper uses untuned static thresholds and argues the mechanism is robust; " +
			"wider or narrower accuracy bands should move results only slightly",
		Header: []string{"A_low", "A_high", "IPC", "BPKI"},
	}
	for i, th := range ths {
		ipc, bpki := means(g, ablationWorkloads, order[i])
		row := []string{f2(th[0]), f2(th[1]), f3(ipc), f1(bpki)}
		if th == [2]float64{0.40, 0.75} {
			row[1] += " (base)"
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

func runTInterval(ctx context.Context, p Params) ([]Table, error) {
	var cols []column
	for _, ti := range []uint64{256, 1024, 4096, 8192} {
		cols = append(cols, fdpColumn(u64(ti), func(c *sim.Config) { c.FDP.TInterval = ti }))
	}
	// Params.apply would stamp p.TInterval over every column's interval.
	p.TInterval = 0
	g, order, err := runGrid(ctx, p, ablationWorkloads, cols)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Ablation: FDP sampling-interval length (gmean IPC / amean BPKI over 5 workloads)",
		Note: "short intervals adapt faster but on noisier estimates; the paper's 8192 " +
			"(half the L2's blocks) assumes 250M-instruction runs",
		Header: []string{"T_interval", "IPC", "BPKI", "intervals(chaserand)"},
	}
	for _, c := range order {
		ipc, bpki := means(g, ablationWorkloads, c)
		t.AddRow(c, f3(ipc), f1(bpki), fmt.Sprintf("%d", g.MustGet("chaserand", c).Intervals))
	}
	return []Table{t}, nil
}

func runFilterSize(ctx context.Context, p Params) ([]Table, error) {
	var cols []column
	for _, bits := range []int{512, 1024, 4096, 16384} {
		cols = append(cols, fdpColumn(fmt.Sprintf("%d", bits), func(c *sim.Config) { c.FDP.FilterBits = bits }))
	}
	g, order, err := runGrid(ctx, p, ablationWorkloads, cols)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Ablation: pollution-filter size (gmean IPC / amean BPKI over 5 workloads)",
		Note: "smaller filters alias more (overestimating pollution); the paper provisions " +
			"4096 bits",
		Header: []string{"filter bits", "IPC", "BPKI", "pollution(chaserand)"},
	}
	for _, c := range order {
		ipc, bpki := means(g, ablationWorkloads, c)
		t.AddRow(c, f3(ipc), f1(bpki), pct(g.MustGet("chaserand", c).Pollution))
	}
	return []Table{t}, nil
}

func runBusWidth(ctx context.Context, p Params) ([]Table, error) {
	// Section 4.3: "In systems where bandwidth contention is estimated to
	// be higher, A_high and A_low thresholds can be increased to restrict
	// the prefetcher from being too aggressive." Halve the bus bandwidth
	// and compare default thresholds against raised ones.
	type variant struct {
		bus        string
		thresholds string
		transfer   uint64 // cycles per block
	}
	variants := []variant{
		{"baseline (4.5 GB/s)", "default", 57},
		{"half (2.25 GB/s)", "default", 114},
		{"half (2.25 GB/s)", "raised (0.60/0.90)", 114},
	}
	var cols []column
	for _, v := range variants {
		cols = append(cols, fdpColumn(v.bus+", "+v.thresholds, func(c *sim.Config) {
			c.DRAM.Transfer = v.transfer
			if v.thresholds != "default" {
				c.FDP.Thresholds.ALow, c.FDP.Thresholds.AHigh = 0.60, 0.90
			}
		}))
	}
	g, order, err := runGrid(ctx, p, ablationWorkloads, cols)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Ablation: raised accuracy thresholds under a half-bandwidth bus (Section 4.3)",
		Note:   "with scarcer bandwidth, stricter accuracy demands should save BPKI at little IPC cost",
		Header: []string{"bus", "thresholds", "IPC", "BPKI"},
	}
	for i, v := range variants {
		ipc, bpki := means(g, ablationWorkloads, order[i])
		t.AddRow(v.bus, v.thresholds, f3(ipc), f1(bpki))
	}
	return []Table{t}, nil
}
