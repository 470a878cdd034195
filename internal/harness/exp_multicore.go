package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/sim"
)

// Multi-core extension: the paper's introduction argues that bandwidth
// contention from prefetching "will become more significant as more and
// more processing cores are integrated onto the same die", making
// bandwidth-efficient prefetching more valuable. This experiment puts
// that claim to the test: cores with private hierarchies contend for one
// 4.5 GB/s bus, comparing conventional very aggressive prefetching on
// every core against per-core FDP.

func init() {
	registerExperiment("multicore", "Extension: per-core FDP on a shared memory bus (CMP motivation)", runMulticore)
	registerExperiment("dahlgren", "Extension: FDP vs. Dahlgren adaptive sequential prefetching (Section 6.1)", runDahlgren)
	registerExperiment("hybrid", "Extension: FDP on a stream+stride hybrid prefetcher", runHybrid)
}

func runMulticore(ctx context.Context, p Params) ([]Table, error) {
	type scenario struct {
		name      string
		workloads []string
	}
	scenarios := []scenario{
		{"2x seqstream", []string{"seqstream", "seqstream"}},
		{"2x multistream", []string{"multistream", "multistream"}},
		{"stream+hostile", []string{"seqstream", "chaserand"}},
		{"4-core mix", []string{"seqstream", "multistream", "chaserand", "mixedphase"}},
	}
	mkCfg := func(mode string, workload string) sim.Config {
		var cfg sim.Config
		switch mode {
		case cfgNoPref:
			cfg = sim.Default()
		case cfgVA:
			cfg = sim.Conventional(sim.PrefStream, 5)
		default:
			cfg = sim.WithFDP(sim.PrefStream)
		}
		cfg = p.apply(cfg)
		cfg.MaxInsts = p.Insts / 2 // per-core budget
		cfg.Workload = workload
		return cfg
	}
	t := Table{
		Title: "Extension: chip multiprocessor with a shared 4.5 GB/s bus",
		Note: "per-core private L1/L2/prefetcher/FDP; aggregate IPC sums per-core IPCs; min-core IPC is the " +
			"fairness floor (a conventional very aggressive prefetcher starves the prefetch-hostile core); " +
			"bus/KI is total bus transactions per 1000 instructions across all cores",
		Header: []string{"scenario", "config", "aggregate IPC", "min-core IPC", "per-core IPC", "bus/KI"},
	}
	for _, sc := range scenarios {
		for _, mode := range []string{cfgNoPref, cfgVA, cfgFDP} {
			var mc sim.MultiConfig
			for _, w := range sc.workloads {
				mc.Cores = append(mc.Cores, mkCfg(mode, w))
			}
			res, err := sim.RunMultiContext(ctx, mc)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sc.name, mode, err)
			}
			perCore := ""
			minIPC := res.Cores[0].IPC
			var totalInsts uint64
			for i := range res.Cores {
				if i > 0 {
					perCore += " "
				}
				perCore += f3(res.Cores[i].IPC)
				if res.Cores[i].IPC < minIPC {
					minIPC = res.Cores[i].IPC
				}
				totalInsts += res.Cores[i].Counters.Retired
			}
			busKI := 1000 * float64(res.TotalBusAccesses) / float64(totalInsts)
			t.AddRow(sc.name, mode, f3(res.AggregateIPC()), f3(minIPC), perCore, f1(busKI))
		}
	}
	return []Table{t}, nil
}

func runDahlgren(ctx context.Context, p Params) ([]Table, error) {
	order := []string{cfgNoPref, "NextLine", "Dahlgren", "Stream+FDP"}
	configs := map[string]sim.Config{
		cfgNoPref:    sim.Default(),
		"NextLine":   sim.Conventional(sim.PrefNextLine, 5),
		"Dahlgren":   sim.Conventional(sim.PrefDahlgren, 3),
		"Stream+FDP": sim.WithFDP(sim.PrefStream),
	}
	ws := ablationWorkloads
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}
	ipc := metricTable("Extension: FDP vs. Dahlgren et al.'s adaptive sequential prefetching — IPC",
		"Dahlgren adapts a sequential prefetcher's degree by accuracy alone (the paper's closest prior work); "+
			"FDP's three-metric feedback on a stream prefetcher should dominate",
		ws, order, g, ipcOf, f3, true)
	bpki := metricTable("Extension: FDP vs. Dahlgren — BPKI", "", ws, order, g, bpkiOf, f1, false)
	return []Table{ipc, bpki}, nil
}

func runHybrid(ctx context.Context, p Params) ([]Table, error) {
	order := []string{"Stream+FDP", "Stride+FDP", "Hybrid VA", "Hybrid+FDP"}
	configs := map[string]sim.Config{
		"Stream+FDP": sim.WithFDP(sim.PrefStream),
		"Stride+FDP": sim.WithFDP(sim.PrefStride),
		"Hybrid VA":  sim.Conventional(sim.PrefHybrid, 5),
		"Hybrid+FDP": sim.WithFDP(sim.PrefHybrid),
	}
	ws := []string{"seqstream", "transpose", "stride3", "chaserand", "mixedphase", "spmv"}
	g, err := RunAll(ctx, labeled(ws, configs, order, p), p)
	if err != nil {
		return nil, err
	}
	ipc := metricTable("Extension: stream+stride hybrid under FDP — IPC",
		"the hybrid should inherit stream's wins on unit strides and stride's wins on large strides, "+
			"with FDP containing the combined junk on hostile workloads",
		ws, order, g, ipcOf, f3, true)
	bpki := metricTable("Extension: stream+stride hybrid under FDP — BPKI", "", ws, order, g, bpkiOf, f1, false)
	return []Table{ipc, bpki}, nil
}
