package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

// Experiments for the stream prefetcher: Figures 1-3 and 5-10, Tables 4
// and 5, and the Section 5.6 accuracy-only ablation.

func init() {
	registerExperiment("fig1", "IPC vs. prefetcher aggressiveness (Figure 1)", runFig1)
	registerExperiment("fig2", "IPC and prefetch accuracy (Figure 2)", runFig2)
	registerExperiment("fig3", "IPC and prefetch lateness (Figure 3)", runFig3)
	registerExperiment("fig5", "Dynamic adjustment of aggressiveness (Figure 5)", runFig5)
	registerExperiment("fig6", "Distribution of the dynamic aggressiveness level (Figure 6)", runFig6)
	registerExperiment("fig7", "Dynamic adjustment of insertion policy (Figure 7)", runFig7)
	registerExperiment("fig8", "Distribution of the insertion position (Figure 8)", runFig8)
	registerExperiment("fig9", "Overall performance of FDP (Figure 9)", runFig9)
	registerExperiment("fig10", "Effect of FDP on bandwidth, BPKI (Figure 10)", runFig10)
	registerExperiment("table4", "Prefetches sent by a very aggressive stream prefetcher (Table 4)", runTable4)
	registerExperiment("table5", "Average IPC and BPKI, conventional vs. FDP (Table 5)", runTable5)
	registerExperiment("accuracyonly", "Accuracy-only feedback ablation (Section 5.6)", runAccuracyOnly)
}

// metricTable renders one column per configuration for a per-workload
// metric, with an averaging row (geometric mean for IPC-like metrics,
// arithmetic for BPKI-like, following the paper).
func metricTable(title, note string, workloads, order []string, g *Grid,
	metric func(sim.Result) float64, format func(float64) string, geo bool) Table {

	t := Table{Title: title, Note: note, Header: append([]string{"workload"}, order...)}
	cols := make([][]float64, len(order))
	for _, w := range workloads {
		row := []string{w}
		for i, c := range order {
			v := metric(g.MustGet(w, c))
			cols[i] = append(cols[i], v)
			row = append(row, format(v))
		}
		t.AddRow(row...)
	}
	avgLabel, avg := "amean", stats.ArithMean
	if geo {
		avgLabel, avg = "gmean", stats.GeoMean
	}
	row := []string{avgLabel}
	for i := range order {
		row = append(row, format(avg(cols[i])))
	}
	t.AddRow(row...)
	return t
}

func ipcOf(r sim.Result) float64  { return r.IPC }
func bpkiOf(r sim.Result) float64 { return r.BPKI }

// aggressivenessGrid runs the 4-configuration comparison of Figures 1-3.
func aggressivenessGrid(ctx context.Context, p Params) (*Grid, []string, []string, error) {
	order := []string{cfgNoPref, cfgVC, cfgMid, cfgVA}
	configs := map[string]sim.Config{
		cfgNoPref: sim.Default(),
		cfgVC:     sim.Conventional(sim.PrefStream, 1),
		cfgMid:    sim.Conventional(sim.PrefStream, 3),
		cfgVA:     sim.Conventional(sim.PrefStream, 5),
	}
	workloads := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(workloads, configs, order, p), p)
	return g, workloads, order, err
}

func runFig1(ctx context.Context, p Params) ([]Table, error) {
	g, ws, order, err := aggressivenessGrid(ctx, p)
	if err != nil {
		return nil, err
	}
	return []Table{
		metricTable("Figure 1: IPC vs. prefetcher aggressiveness",
			"paper: very aggressive best on average (+84% over no prefetching) but large losses on some benchmarks",
			ws, order, g, ipcOf, f3, true),
	}, nil
}

func runFig2(ctx context.Context, p Params) ([]Table, error) {
	g, ws, order, err := aggressivenessGrid(ctx, p)
	if err != nil {
		return nil, err
	}
	prefOrder := order[1:] // accuracy is undefined without a prefetcher
	return []Table{
		metricTable("Figure 2 (left): IPC", "", ws, order, g, ipcOf, f3, true),
		metricTable("Figure 2 (right): prefetch accuracy",
			"paper: accuracy < 40% => prefetching degrades performance",
			ws, prefOrder, g, func(r sim.Result) float64 { return r.Accuracy }, pct, false),
	}, nil
}

func runFig3(ctx context.Context, p Params) ([]Table, error) {
	g, ws, order, err := aggressivenessGrid(ctx, p)
	if err != nil {
		return nil, err
	}
	prefOrder := order[1:]
	return []Table{
		metricTable("Figure 3 (left): IPC", "", ws, order, g, ipcOf, f3, true),
		metricTable("Figure 3 (right): prefetch lateness",
			"paper: lateness decreases as the prefetcher becomes more aggressive",
			ws, prefOrder, g, func(r sim.Result) float64 { return r.Lateness }, pct, false),
	}, nil
}

func runFig5(ctx context.Context, p Params) ([]Table, error) {
	order := []string{cfgNoPref, cfgVC, cfgMid, cfgVA, cfgDynAggr}
	configs := map[string]sim.Config{
		cfgNoPref:  sim.Default(),
		cfgVC:      sim.Conventional(sim.PrefStream, 1),
		cfgMid:     sim.Conventional(sim.PrefStream, 3),
		cfgVA:      sim.Conventional(sim.PrefStream, 5),
		cfgDynAggr: dynAggr(sim.PrefStream),
	}
	ws := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}
	return []Table{
		metricTable("Figure 5: dynamic adjustment of prefetcher aggressiveness",
			"paper: Dynamic Aggressiveness ~ per-benchmark best static configuration; +4.7% over Very Aggressive",
			ws, order, g, ipcOf, f3, true),
	}, nil
}

func runFig6(ctx context.Context, p Params) ([]Table, error) {
	ws := workload.MemoryIntensive()
	configs := map[string]sim.Config{cfgDynAggr: dynAggr(sim.PrefStream)}
	g, err := RunAll(ctx, labeled(ws, configs, []string{cfgDynAggr}, p), p)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Figure 6: distribution of the dynamic aggressiveness level (percent of sampling intervals)",
		Note:   "paper: prefetch-hostile benchmarks sit at Very Conservative >98% of intervals; streaming ones at Very Aggressive",
		Header: []string{"workload", "VeryCons", "Cons", "Middle", "Aggr", "VeryAggr", "intervals"},
	}
	for _, w := range ws {
		r := g.MustGet(w, cfgDynAggr)
		row := []string{w}
		for i := 0; i < 5; i++ {
			row = append(row, pct(r.LevelDist.Fraction(i)))
		}
		row = append(row, fmt.Sprintf("%d", r.Intervals))
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

func runFig7(ctx context.Context, p Params) ([]Table, error) {
	order := []string{"LRU", "LRU-4", "MID", "MRU", "DynIns"}
	configs := map[string]sim.Config{
		"LRU":    staticIns(sim.PrefStream, 0),
		"LRU-4":  staticIns(sim.PrefStream, 1),
		"MID":    staticIns(sim.PrefStream, 2),
		"MRU":    staticIns(sim.PrefStream, 3),
		"DynIns": dynIns(sim.PrefStream),
	}
	ws := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}
	return []Table{
		metricTable("Figure 7: cache insertion policy of prefetched blocks (very aggressive prefetcher)",
			"paper: LRU-4 best static (+3.2% over MRU); Dynamic Insertion beats all statics (+5.1% over MRU)",
			ws, order, g, ipcOf, f3, true),
	}, nil
}

func runFig8(ctx context.Context, p Params) ([]Table, error) {
	ws := workload.MemoryIntensive()
	configs := map[string]sim.Config{"DynIns": dynIns(sim.PrefStream)}
	g, err := RunAll(ctx, labeled(ws, configs, []string{"DynIns"}, p), p)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Figure 8: distribution of the insertion position of prefetched blocks (Dynamic Insertion)",
		Note:   "paper: benchmarks best served by LRU insertion place >50% of prefetches at LRU",
		Header: []string{"workload", "LRU", "LRU-4", "MID", "MRU"},
	}
	for _, w := range ws {
		r := g.MustGet(w, "DynIns")
		t.AddRow(w,
			pct(r.InsertDist.Fraction(0)), pct(r.InsertDist.Fraction(1)),
			pct(r.InsertDist.Fraction(2)), pct(r.InsertDist.Fraction(3)))
	}
	return []Table{t}, nil
}

// overallGrid runs Figure 9/10's five configurations.
func overallGrid(ctx context.Context, p Params) (*Grid, []string, []string, error) {
	order := []string{cfgNoPref, cfgVA, cfgDynIns, cfgDynAggr, cfgFDP}
	configs := map[string]sim.Config{
		cfgNoPref:  sim.Default(),
		cfgVA:      sim.Conventional(sim.PrefStream, 5),
		cfgDynIns:  dynIns(sim.PrefStream),
		cfgDynAggr: dynAggr(sim.PrefStream),
		cfgFDP:     sim.WithFDP(sim.PrefStream),
	}
	ws := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	return g, ws, order, err
}

func runFig9(ctx context.Context, p Params) ([]Table, error) {
	g, ws, order, err := overallGrid(ctx, p)
	if err != nil {
		return nil, err
	}
	t := metricTable("Figure 9: overall performance of FDP",
		"paper: DynAggr+DynIns best overall (+6.5% over Very Aggressive); no benchmark loses vs. no prefetching",
		ws, order, g, ipcOf, f3, true)
	return []Table{t}, nil
}

func runFig10(ctx context.Context, p Params) ([]Table, error) {
	g, ws, order, err := overallGrid(ctx, p)
	if err != nil {
		return nil, err
	}
	t := metricTable("Figure 10: memory bus accesses per 1000 instructions (BPKI)",
		"paper: FDP consumes 18.7% less bandwidth than Very Aggressive while performing 6.5% better",
		ws, order, g, bpkiOf, f1, false)
	return []Table{t}, nil
}

func runTable4(ctx context.Context, p Params) ([]Table, error) {
	ws := workload.Names()
	configs := map[string]sim.Config{cfgVA: sim.Conventional(sim.PrefStream, 5)}
	g, err := RunAll(ctx, labeled(ws, configs, []string{cfgVA}, p), p)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Table 4: prefetches sent to memory by a very aggressive stream prefetcher",
		Note:   fmt.Sprintf("per %d instructions; the memory-intensive set is defined by high prefetch counts", p.Insts),
		Header: []string{"workload", "set", "prefetches sent", "prefetches issued"},
	}
	for _, w := range ws {
		r := g.MustGet(w, cfgVA)
		set := "low-potential"
		if s, _ := workload.Lookup(w); s.MemoryIntensive {
			set = "memory-intensive"
		}
		t.AddRow(w, set, fmt.Sprintf("%d", r.Counters.PrefSent), fmt.Sprintf("%d", r.Counters.PrefIssued))
	}
	return []Table{t}, nil
}

func runTable5(ctx context.Context, p Params) ([]Table, error) {
	order := []string{cfgNoPref, cfgVC, cfgMid, cfgVA, cfgFDP}
	configs := map[string]sim.Config{
		cfgNoPref: sim.Default(),
		cfgVC:     sim.Conventional(sim.PrefStream, 1),
		cfgMid:    sim.Conventional(sim.PrefStream, 3),
		cfgVA:     sim.Conventional(sim.PrefStream, 5),
		cfgFDP:    sim.WithFDP(sim.PrefStream),
	}
	ws := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Table 5: average IPC (gmean) and BPKI (amean), conventional prefetching vs. FDP",
		Note:   "paper: FDP = +6.5% IPC and -18.7% BPKI vs. Very Aggressive; +13.6% IPC vs. the equal-bandwidth Middle config",
		Header: []string{"metric", cfgNoPref, cfgVC, cfgMid, cfgVA, cfgFDP},
	}
	var ipcRow, bpkiRow []string
	var ipcs, bpkis []float64
	for _, c := range order {
		var is, bs []float64
		for _, w := range ws {
			r := g.MustGet(w, c)
			is = append(is, r.IPC)
			bs = append(bs, r.BPKI)
		}
		ipcs = append(ipcs, stats.GeoMean(is))
		bpkis = append(bpkis, stats.ArithMean(bs))
	}
	ipcRow = []string{"IPC"}
	bpkiRow = []string{"BPKI"}
	for i := range order {
		ipcRow = append(ipcRow, f3(ipcs[i]))
		bpkiRow = append(bpkiRow, f2(bpkis[i]))
	}
	t.AddRow(ipcRow...)
	t.AddRow(bpkiRow...)
	t.AddRow("IPC vs VA", deltaPct(ipcs[3], ipcs[0]), deltaPct(ipcs[3], ipcs[1]),
		deltaPct(ipcs[3], ipcs[2]), "-", deltaPct(ipcs[3], ipcs[4]))
	t.AddRow("BPKI vs VA", deltaPct(bpkis[3], bpkis[0]), deltaPct(bpkis[3], bpkis[1]),
		deltaPct(bpkis[3], bpkis[2]), "-", deltaPct(bpkis[3], bpkis[4]))
	return []Table{t}, nil
}

func runAccuracyOnly(ctx context.Context, p Params) ([]Table, error) {
	order := []string{cfgVA, cfgAccOnly, cfgFDP}
	configs := map[string]sim.Config{
		cfgVA:      sim.Conventional(sim.PrefStream, 5),
		cfgAccOnly: accuracyOnly(sim.PrefStream),
		cfgFDP:     sim.WithFDP(sim.PrefStream),
	}
	ws := workload.MemoryIntensive()
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}
	ipc := metricTable("Section 5.6: accuracy-only feedback vs. comprehensive FDP — IPC",
		"paper: the comprehensive mechanism is +3.4% IPC and -2.5% bandwidth vs. accuracy-only throttling",
		ws, order, g, ipcOf, f3, true)
	bpki := metricTable("Section 5.6: accuracy-only feedback vs. comprehensive FDP — BPKI", "",
		ws, order, g, bpkiOf, f1, false)
	return []Table{ipc, bpki}, nil
}
