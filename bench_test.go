package fdpsim

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark executes the corresponding harness experiment end-to-end
// (workload x configuration sweep), so `go test -bench=.` regenerates
// every result at benchmark scale; `cmd/experiments` prints the full
// tables at larger instruction counts.
//
// The harness memoizes identical simulations within one memo, so each
// benchmark iteration gets a fresh one to keep the measurements honest.

import (
	"context"
	"testing"

	"fdpsim/internal/harness"
	"fdpsim/internal/store"
)

// benchParams sizes experiments for benchmarking: large enough that every
// mechanism (training, intervals, pollution) engages, small enough to
// iterate.
func benchParams() harness.Params {
	return harness.Params{Insts: 60_000, TInterval: 512, Seed: 1, Workers: 2}
}

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Memo = store.NewMemo(nil)
		tables, err := e.Run(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkFig1Aggressiveness regenerates Figure 1: IPC of the stream
// prefetcher at four static aggressiveness levels over the 17
// memory-intensive workloads.
func BenchmarkFig1Aggressiveness(b *testing.B) { benchmarkExperiment(b, "fig1") }

// BenchmarkFig2Accuracy regenerates Figure 2: IPC plus whole-run prefetch
// accuracy per configuration.
func BenchmarkFig2Accuracy(b *testing.B) { benchmarkExperiment(b, "fig2") }

// BenchmarkFig3Lateness regenerates Figure 3: IPC plus whole-run prefetch
// lateness per configuration.
func BenchmarkFig3Lateness(b *testing.B) { benchmarkExperiment(b, "fig3") }

// BenchmarkFig5DynamicAggressiveness regenerates Figure 5: Dynamic
// Aggressiveness vs. the four static configurations.
func BenchmarkFig5DynamicAggressiveness(b *testing.B) { benchmarkExperiment(b, "fig5") }

// BenchmarkFig6CounterDistribution regenerates Figure 6: the distribution
// of the Dynamic Configuration Counter across sampling intervals.
func BenchmarkFig6CounterDistribution(b *testing.B) { benchmarkExperiment(b, "fig6") }

// BenchmarkFig7InsertionPolicy regenerates Figure 7: static insertion
// positions vs. Dynamic Insertion under a very aggressive prefetcher.
func BenchmarkFig7InsertionPolicy(b *testing.B) { benchmarkExperiment(b, "fig7") }

// BenchmarkFig8InsertionDistribution regenerates Figure 8: where Dynamic
// Insertion placed prefetched blocks.
func BenchmarkFig8InsertionDistribution(b *testing.B) { benchmarkExperiment(b, "fig8") }

// BenchmarkFig9Overall regenerates Figure 9: the paper's headline
// comparison of FDP against conventional prefetching.
func BenchmarkFig9Overall(b *testing.B) { benchmarkExperiment(b, "fig9") }

// BenchmarkFig10Bandwidth regenerates Figure 10: BPKI per configuration.
func BenchmarkFig10Bandwidth(b *testing.B) { benchmarkExperiment(b, "fig10") }

// BenchmarkFig11PrefetchCache regenerates Figure 11: prefetch caches of
// 2 KB - 1 MB vs. FDP prefetching into the L2 (performance).
func BenchmarkFig11PrefetchCache(b *testing.B) { benchmarkExperiment(b, "fig11") }

// BenchmarkFig12PrefetchCacheBandwidth regenerates Figure 12: the same
// comparison in BPKI.
func BenchmarkFig12PrefetchCacheBandwidth(b *testing.B) { benchmarkExperiment(b, "fig12") }

// BenchmarkFig13GHB regenerates Figure 13: FDP on the GHB C/DC
// delta-correlation prefetcher.
func BenchmarkFig13GHB(b *testing.B) { benchmarkExperiment(b, "fig13") }

// BenchmarkStrideFDP regenerates Section 5.8: FDP on the PC-based stride
// prefetcher.
func BenchmarkStrideFDP(b *testing.B) { benchmarkExperiment(b, "stride") }

// BenchmarkFig14LowPotential regenerates Figure 14: the nine low-potential
// benchmarks where FDP must do no harm.
func BenchmarkFig14LowPotential(b *testing.B) { benchmarkExperiment(b, "fig14") }

// BenchmarkTable4PrefetchCounts regenerates Table 4: prefetches sent by a
// very aggressive stream prefetcher on all 26 workloads.
func BenchmarkTable4PrefetchCounts(b *testing.B) { benchmarkExperiment(b, "table4") }

// BenchmarkTable5Summary regenerates Table 5: average IPC and BPKI across
// conventional configurations and FDP.
func BenchmarkTable5Summary(b *testing.B) { benchmarkExperiment(b, "table5") }

// BenchmarkTable7Sensitivity regenerates Table 7: sensitivity of FDP's
// wins to L2 size and memory latency.
func BenchmarkTable7Sensitivity(b *testing.B) { benchmarkExperiment(b, "table7") }

// BenchmarkAccuracyOnlyAblation regenerates Section 5.6: throttling on
// accuracy alone vs. the comprehensive three-metric feedback.
func BenchmarkAccuracyOnlyAblation(b *testing.B) { benchmarkExperiment(b, "accuracyonly") }

// BenchmarkMulticoreExtension regenerates the shared-bus CMP extension.
func BenchmarkMulticoreExtension(b *testing.B) { benchmarkExperiment(b, "multicore") }

// BenchmarkDahlgrenComparison regenerates the FDP vs. adaptive sequential
// prefetching comparison (related work, Section 6.1).
func BenchmarkDahlgrenComparison(b *testing.B) { benchmarkExperiment(b, "dahlgren") }

// BenchmarkHybridPrefetcher regenerates the stream+stride hybrid study.
func BenchmarkHybridPrefetcher(b *testing.B) { benchmarkExperiment(b, "hybrid") }

// BenchmarkSharedL2 regenerates the Section 4.3 shared-L2 threshold study.
func BenchmarkSharedL2(b *testing.B) { benchmarkExperiment(b, "sharedl2") }

// BenchmarkPerStreamRamp regenerates the footnote-8 per-stream study.
func BenchmarkPerStreamRamp(b *testing.B) { benchmarkExperiment(b, "perstream") }

// BenchmarkAblationThresholds regenerates the Section 4.3 threshold
// sensitivity ablation.
func BenchmarkAblationThresholds(b *testing.B) { benchmarkExperiment(b, "thresholds") }

// BenchmarkAblationInterval regenerates the sampling-interval ablation.
func BenchmarkAblationInterval(b *testing.B) { benchmarkExperiment(b, "tinterval") }

// BenchmarkAblationFilterSize regenerates the pollution-filter size
// ablation.
func BenchmarkAblationFilterSize(b *testing.B) { benchmarkExperiment(b, "filtersize") }

// BenchmarkAblationBusWidth regenerates the bandwidth-constrained
// threshold ablation.
func BenchmarkAblationBusWidth(b *testing.B) { benchmarkExperiment(b, "buswidth") }

// BenchmarkSimulatorCyclesPerSecond measures raw simulator throughput:
// cycles simulated per wall-clock second on a bus-saturated stream.
func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	cfg := Conventional(PrefStream, 5)
	cfg.Workload = "seqstream"
	cfg.MaxInsts = 200_000
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Counters.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSingleRunFDP measures one full FDP simulation (the unit of work
// every experiment fans out).
func BenchmarkSingleRunFDP(b *testing.B) {
	cfg := WithFDP(PrefStream)
	cfg.Workload = "mixedphase"
	cfg.MaxInsts = 100_000
	cfg.FDP.TInterval = 1024
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstsPerSecond measures end-to-end simulator throughput in
// retired instructions per wall-clock second on representative
// memory-intensive workloads (the number the event-engine refactor is
// judged by; compare runs with benchstat). Each iteration is one full
// simulation, so allocs/op includes one-time construction — the
// steady-state zero-allocation guarantee is enforced separately by
// TestPerInstructionAllocs and BenchmarkPerInstruction in internal/sim.
func BenchmarkInstsPerSecond(b *testing.B) {
	const insts = 200_000
	for _, w := range []string{"seqstream", "mixedphase", "chaserand"} {
		b.Run(w, func(b *testing.B) {
			cfg := WithFDP(PrefStream)
			cfg.Workload = w
			cfg.MaxInsts = insts
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*insts/b.Elapsed().Seconds(), "insts/s")
		})
	}
}
