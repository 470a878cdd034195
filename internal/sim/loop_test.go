package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fdpsim/internal/mem"
)

// recorder collects one run's interval stream: every progress snapshot
// (wall-clock zeroed) and every decision event.
type recorder struct {
	snaps  []Snapshot
	events collectTracer
}

func (r *recorder) install(cfg *Config) {
	cfg.Progress = func(s Snapshot) {
		s.Elapsed = 0
		r.snaps = append(r.snaps, s)
	}
	cfg.Tracer = &r.events
}

// TestTopologiesMatchSingleCore is the differential oracle behind the one
// run loop: a one-core multi-core run and a one-thread SMT run are the
// single-core run. The multi-core Result must match field for field, and
// its interval stream and Final snapshot too; the SMT result must match
// on cycles, counters, thread IPC, BPKI, accuracy, pollution and final
// level, and its interval stream. The pinned result-shape gaps (DESIGN.md,
// "Run loop") are asserted as explicit exceptions. SMT takes no warm-up.
func TestTopologiesMatchSingleCore(t *testing.T) {
	for _, w := range []string{"seqstream", "chaserand", "mixedphase"} {
		for _, warm := range []uint64{0, 5_000} {
			t.Run(fmt.Sprintf("%s/warmup%d", w, warm), func(t *testing.T) {
				cfg := WithFDP(PrefStream)
				cfg.Workload = w
				cfg.MaxInsts = 20_000
				cfg.WarmupInsts = warm
				cfg.L1Blocks, cfg.L2Blocks = 64, 256
				cfg.MSHRs, cfg.PrefQueueCap = 32, 32
				cfg.FDP.TInterval = 64
				cfg.KeepFDPHistory = true
				ctx := context.Background()

				var singleRec, multiRec, smtRec recorder
				sc := cfg
				singleRec.install(&sc)
				single, err := RunContext(ctx, sc)
				if err != nil {
					t.Fatal(err)
				}
				if single.Intervals == 0 {
					t.Fatal("no intervals closed; the comparison would be vacuous")
				}

				mcfg := cfg
				multiRec.install(&mcfg)
				multi, err := RunMultiContext(ctx, MultiConfig{Cores: []Config{mcfg}})
				if err != nil {
					t.Fatal(err)
				}
				core := multi.Cores[0]
				if core.DRAM != (mem.Stats{}) || core.Counters.StallFetch != 0 {
					t.Errorf("pinned multi-core gaps filled: DRAM %+v, StallFetch %d", core.DRAM, core.Counters.StallFetch)
				}
				core.DRAM, core.Counters.StallFetch = single.DRAM, single.Counters.StallFetch
				want, got := single, core.Result
				want.Elapsed, got.Elapsed = 0, 0
				if !reflect.DeepEqual(want, got) {
					t.Errorf("1-core multi-core result differs:\nsingle: %+v\nmulti:  %+v", want, got)
				}
				// With no warm-up the counters start at cycle 1, so they
				// cover every cycle of the run.
				if core.FinishCycle != multi.Cycles || (warm == 0 && multi.Cycles != single.Counters.Cycles) {
					t.Errorf("finish cycle %d, run cycles %d, single-core cycles %d",
						core.FinishCycle, multi.Cycles, single.Counters.Cycles)
				}
				if !reflect.DeepEqual(singleRec, multiRec) {
					t.Errorf("1-core multi-core interval stream differs: %d vs %d snapshots, %d vs %d events",
						len(singleRec.snaps), len(multiRec.snaps), len(singleRec.events.events), len(multiRec.events.events))
				}
				final := multiRec.snaps[len(multiRec.snaps)-1]
				if !final.Final || final.Retired != got.Counters.Retired || final.Cycle != got.Counters.Cycles ||
					final.IPC != got.IPC || final.Interval != got.Intervals || final.Level != got.FinalLevel {
					t.Errorf("Final snapshot %+v does not mirror the core result", final)
				}

				if warm != 0 {
					return
				}
				base := cfg
				smtRec.install(&base)
				smt, err := RunSMTContext(ctx, SMTConfig{Base: base, Workloads: []string{w}})
				if err != nil {
					t.Fatal(err)
				}
				c := smt.Counters
				if c.RetiredLoads != 0 || c.RetiredStores != 0 || c.StallFetch != 0 || c.Intervals != 0 {
					t.Errorf("pinned SMT gaps filled: %+v", c)
				}
				sctr := single.Counters
				c.RetiredLoads, c.RetiredStores, c.StallFetch, c.Intervals = sctr.RetiredLoads, sctr.RetiredStores, sctr.StallFetch, sctr.Intervals
				th := smt.Threads[0]
				if c != sctr || smt.Cycles != sctr.Cycles || th.Retired != sctr.Retired || th.FinishCycle != sctr.Cycles {
					t.Errorf("1-thread SMT counters differ:\nsingle: %+v\nsmt:    %+v (cycles %d, thread %+v)", sctr, c, smt.Cycles, th)
				}
				if th.IPC != single.IPC || smt.BPKI != single.BPKI || smt.Accuracy != single.Accuracy ||
					smt.Pollution != single.Pollution || smt.FinalLevel != single.FinalLevel {
					t.Errorf("1-thread SMT metrics differ: IPC %v/%v BPKI %v/%v accuracy %v/%v pollution %v/%v level %d/%d",
						th.IPC, single.IPC, smt.BPKI, single.BPKI, smt.Accuracy, single.Accuracy,
						smt.Pollution, single.Pollution, smt.FinalLevel, single.FinalLevel)
				}
				// SMT emits no Final snapshot (a pinned gap); its interval
				// records carry the same stamps and target as single-core's.
				if !reflect.DeepEqual(singleRec.snaps[:len(singleRec.snaps)-1], smtRec.snaps) ||
					!reflect.DeepEqual(singleRec.events, smtRec.events) {
					t.Errorf("1-thread SMT interval stream differs: %d vs %d snapshots", len(singleRec.snaps)-1, len(smtRec.snaps))
				}
			})
		}
	}
}
