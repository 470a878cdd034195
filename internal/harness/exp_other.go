package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/core"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/sim"
	"fdpsim/internal/workload"
)

// Experiments beyond the stream-prefetcher core: the prefetch-cache
// comparison (Figures 11-12), the GHB C/DC and PC-stride prefetchers
// (Figure 13, Section 5.8), sensitivity (Table 7), the low-potential
// benchmarks (Figure 14), and the static configuration tables (1, 2, 3, 6).

func init() {
	registerExperiment("fig11", "Performance of prefetch cache vs. FDP (Figure 11)", runFig11)
	registerExperiment("fig12", "Bandwidth of prefetch cache vs. FDP (Figure 12)", runFig12)
	registerExperiment("fig13", "FDP on a GHB C/DC prefetcher (Figure 13)", runFig13)
	registerExperiment("stride", "FDP on a PC-based stride prefetcher (Section 5.8)", runStride)
	registerExperiment("table7", "Sensitivity to L2 size and memory latency (Table 7)", runTable7)
	registerExperiment("fig14", "Effect on the remaining low-potential benchmarks (Figure 14)", runFig14)
	registerExperiment("table1", "Stream prefetcher configurations (Table 1)", runTable1)
	registerExperiment("table2", "Aggressiveness adjustment policy (Table 2)", runTable2)
	registerExperiment("table3", "Baseline processor configuration (Table 3)", runTable3)
	registerExperiment("table6", "Hardware cost of FDP (Table 6)", runTable6)
}

func prefCacheGrid(ctx context.Context, p Params) (*Grid, []string, []string, error) {
	ws := workload.MemoryIntensive()
	g, order, err := runGrid(ctx, p, ws, []column{
		{cfgNoPref, sim.Default()},
		{"VA(base)", sim.Conventional(sim.PrefStream, 5)},
		{"VA+pc2KB", withPrefCache(sim.PrefStream, 2)},
		{"VA+pc8KB", withPrefCache(sim.PrefStream, 8)},
		{"VA+pc32KB", withPrefCache(sim.PrefStream, 32)},
		{"VA+pc64KB", withPrefCache(sim.PrefStream, 64)},
		{"VA+pc1MB", withPrefCache(sim.PrefStream, 1024)},
		{cfgFDP, sim.WithFDP(sim.PrefStream)},
	})
	return g, ws, order, err
}

func runFig11(ctx context.Context, p Params) ([]Table, error) {
	g, ws, order, err := prefCacheGrid(ctx, p)
	if err != nil {
		return nil, err
	}
	return []Table{metricTable("Figure 11: performance of prefetch caches vs. FDP (very aggressive prefetcher)",
		"paper: small (2-8KB) prefetch caches lose to prefetching into the L2; FDP ~ a 32-64KB prefetch cache",
		ws, order, g, ipcOf, f3, true)}, nil
}

func runFig12(ctx context.Context, p Params) ([]Table, error) {
	g, ws, order, err := prefCacheGrid(ctx, p)
	if err != nil {
		return nil, err
	}
	return []Table{metricTable("Figure 12: bandwidth of prefetch caches vs. FDP (BPKI)",
		"paper: FDP uses 16%/9% less bandwidth than 32KB/64KB prefetch-cache configurations",
		ws, order, g, bpkiOf, f1, false)}, nil
}

// altPrefetcherTables runs the Figure 13 / Section 5.8 comparison for a
// non-stream prefetcher.
func altPrefetcherTables(ctx context.Context, p Params, kind sim.PrefetcherKind, title, note string) ([]Table, error) {
	ws := workload.MemoryIntensive()
	g, order, err := runGrid(ctx, p, ws, ladder(kind))
	if err != nil {
		return nil, err
	}
	return ipcAndBPKI(title, note, ws, order, g), nil
}

func runFig13(ctx context.Context, p Params) ([]Table, error) {
	return altPrefetcherTables(ctx, p, sim.PrefGHB,
		"Figure 13: FDP on the GHB C/DC delta-correlation prefetcher",
		"paper: FDP ~ best conventional GHB config with 20.8% less bandwidth; +9.9% IPC vs. equal-bandwidth config")
}

func runStride(ctx context.Context, p Params) ([]Table, error) {
	return altPrefetcherTables(ctx, p, sim.PrefStride,
		"Section 5.8: FDP on a PC-based stride prefetcher",
		"paper: +4% IPC and -24% bandwidth vs. the best conventional stride configuration")
}

func runTable7(ctx context.Context, p Params) ([]Table, error) {
	type point struct {
		label    string
		l2Blocks int
		latency  uint64 // scales the DRAM row latencies
	}
	points := []point{
		{"L2 512KB", 8192, 0},
		{"L2 1MB (base)", 16384, 0},
		{"L2 2MB", 32768, 0},
		{"mem lat ~250", 16384, 250},
		{"mem lat ~500 (base)", 16384, 500},
		{"mem lat ~1000", 16384, 1000},
		{"mem lat ~1500", 16384, 1500},
	}
	// Every point's Middle, Very Aggressive and FDP columns, labelled
	// <point>/<config>, run as one grid.
	var cols []column
	for _, pt := range points {
		mk := func(label string, base sim.Config) column {
			base.L2Blocks = pt.l2Blocks
			if pt.latency != 0 {
				// Scale the bank latencies so the minimum end-to-end
				// latency tracks the requested value (baseline 500).
				scale := float64(pt.latency) / 500
				base.DRAM.RowHit = uint64(float64(base.DRAM.RowHit) * scale)
				base.DRAM.RowConflict = uint64(float64(base.DRAM.RowConflict) * scale)
			}
			// Interval length is defined as half the L2 block count.
			if base.FDP.TInterval > uint64(pt.l2Blocks)/2 {
				base.FDP.TInterval = uint64(pt.l2Blocks) / 2
			}
			return column{pt.label + "/" + label, base}
		}
		cols = append(cols,
			mk(cfgMid, sim.Conventional(sim.PrefStream, 3)),
			mk(cfgVA, sim.Conventional(sim.PrefStream, 5)),
			mk(cfgFDP, sim.WithFDP(sim.PrefStream)))
	}
	ws := workload.MemoryIntensive()
	g, order, err := runGrid(ctx, p, ws, cols)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Table 7: FDP vs. conventional (Middle, Very Aggressive) across L2 sizes and memory latencies",
		Note: "paper: FDP wins IPC and saves bandwidth at every point; IPC gains grow with memory latency. " +
			"The Middle column shows the distance-coverage crossover: beyond ~1000-cycle latency a 16-block " +
			"distance no longer hides memory latency and Very Aggressive pulls ahead",
		Header: []string{"system", "Mid IPC", "VA IPC", "FDP IPC", "FDP vs VA", "Mid BPKI", "VA BPKI", "FDP BPKI", "dBPKI"},
	}
	for i, pt := range points {
		mi, mb := means(g, ws, order[3*i])
		vi, vb := means(g, ws, order[3*i+1])
		fi, fb := means(g, ws, order[3*i+2])
		t.AddRow(pt.label, f3(mi), f3(vi), f3(fi), deltaPct(vi, fi), f2(mb), f2(vb), f2(fb), deltaPct(vb, fb))
	}
	return []Table{t}, nil
}

func runFig14(ctx context.Context, p Params) ([]Table, error) {
	ws := workload.LowPotential()
	g, order, err := runGrid(ctx, p, ws, ladder(sim.PrefStream))
	if err != nil {
		return nil, err
	}
	ipc := metricTable("Figure 14: IPC on the remaining 9 low-potential benchmarks",
		"paper: FDP +0.4% over the best conventional config; no benchmark loses performance",
		ws, order, g, ipcOf, f3, true)
	bpki := metricTable("Figure 14: BPKI on the remaining 9 low-potential benchmarks", "",
		ws, order, g, bpkiOf, f1, false)
	return []Table{ipc, bpki}, nil
}

func runTable1(context.Context, Params) ([]Table, error) {
	t := Table{
		Title:  "Table 1: stream prefetcher aggressiveness configurations",
		Header: []string{"counter", "name", "distance", "degree"},
	}
	for lvl := 1; lvl <= 5; lvl++ {
		s := prefetch.StreamLevels[lvl]
		t.AddRow(fmt.Sprintf("%d", lvl), prefetch.LevelName(lvl),
			fmt.Sprintf("%d", s.Distance), fmt.Sprintf("%d", s.Degree))
	}
	g := Table{
		Title:  "Section 5.7: GHB C/DC aggressiveness (distance = degree)",
		Header: []string{"counter", "name", "degree"},
	}
	for lvl := 1; lvl <= 5; lvl++ {
		g.AddRow(fmt.Sprintf("%d", lvl), prefetch.LevelName(lvl),
			fmt.Sprintf("%d", prefetch.GHBDegrees[lvl]))
	}
	return []Table{t, g}, nil
}

func runTable2(context.Context, Params) ([]Table, error) {
	t := Table{
		Title:  "Table 2: using accuracy, lateness and pollution to adjust aggressiveness",
		Header: []string{"case", "accuracy", "lateness", "pollution", "update", "reason"},
	}
	for _, c := range core.Table2 {
		late, poll := "Not-Late", "Not-Polluting"
		if c.Late {
			late = "Late"
		}
		if c.Polluting {
			poll = "Polluting"
		}
		t.AddRow(fmt.Sprintf("%d", c.Case), c.Accuracy.String(), late, poll, c.Update.String(), c.Reason)
	}
	return []Table{t}, nil
}

func runTable3(context.Context, Params) ([]Table, error) {
	cfg := sim.Default()
	t := Table{
		Title:  "Table 3: baseline processor configuration",
		Header: []string{"component", "value"},
	}
	t.AddRow("core", fmt.Sprintf("%d-wide out-of-order, %d-entry ROB, %d L1D load ports",
		cfg.CPU.Width, cfg.CPU.ROB, cfg.CPU.LoadPorts))
	t.AddRow("L1D", fmt.Sprintf("%d KB, %d-way, %d-cycle, 64 B blocks",
		cfg.L1Blocks*64/1024, cfg.L1Ways, cfg.L1Latency))
	t.AddRow("L2", fmt.Sprintf("%d KB, %d-way, %d-cycle, %d MSHRs",
		cfg.L2Blocks*64/1024, cfg.L2Ways, cfg.L2Latency, cfg.MSHRs))
	t.AddRow("DRAM", fmt.Sprintf("%d banks, %d-block rows, min latency %d cycles",
		cfg.DRAM.Banks, cfg.DRAM.BlocksPerRow, cfg.DRAM.CmdLatency+cfg.DRAM.RowHit+cfg.DRAM.Transfer+cfg.L2Latency))
	t.AddRow("bus", fmt.Sprintf("%d cycles/64B block (4.5 GB/s at 4 GHz)", cfg.DRAM.Transfer))
	t.AddRow("queues", fmt.Sprintf("%d-entry demand/prefetch/writeback bus queues, %d-entry prefetch request queue",
		cfg.DRAM.QueueCap, cfg.PrefQueueCap))
	return []Table{t}, nil
}

func runTable6(context.Context, Params) ([]Table, error) {
	cfg := sim.Default()
	fdp := core.DefaultConfig()
	cost := core.CostFor(cfg.L2Blocks, cfg.MSHRs, fdp.FilterBits, float64(cfg.L2Blocks*64)/1024)
	t := Table{
		Title:  "Table 6: hardware cost of feedback directed prefetching",
		Note:   "paper: 2.54 KB total, 0.24% of a 1 MB L2",
		Header: []string{"structure", "bits"},
	}
	t.AddRow("pref-bit per L2 tag entry", fmt.Sprintf("%d", cost.CachePrefBits))
	t.AddRow("pollution filter", fmt.Sprintf("%d", cost.FilterBits))
	t.AddRow("16-bit feedback counters", fmt.Sprintf("%d", cost.CounterBits))
	t.AddRow("pref-bit per MSHR entry", fmt.Sprintf("%d", cost.MSHRPrefBits))
	t.AddRow("total", fmt.Sprintf("%d bits = %.2f KB (%.2f%% of L2)", cost.TotalBits, cost.TotalKB, cost.OverheadOfL2KB))
	return []Table{t}, nil
}
