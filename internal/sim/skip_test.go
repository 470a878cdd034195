package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fdpsim/internal/mem"
	"fdpsim/internal/workload"
)

// skipOutcome is everything a run exposes: its result (wall-clock fields
// zeroed), every DecisionEvent its tracers received, and its error.
type skipOutcome struct {
	res    any
	events [][]DecisionEvent
	err    error
}

// skipCase runs one configuration and reports its outcome; wantErr
// marks a case that must end in an error.
type skipCase struct {
	name    string
	run     func(t *testing.T) skipOutcome
	wantErr bool
}

// skipGrid is the engine-golden configuration (engine_golden_test.go's
// goldenBase): small caches, 64-eviction intervals and a warm-up, so
// every grid case crosses the warm-up reset.
func skipGrid(kind PrefetcherKind, w string, attr bool) Config {
	cfg := WithFDP(kind)
	cfg.Workload = w
	cfg.MaxInsts = 20_000
	cfg.WarmupInsts = 5_000
	cfg.L1Blocks, cfg.L1Ways = 256, 4
	cfg.L1IBlocks, cfg.L1IWays = 256, 4
	cfg.L2Blocks, cfg.L2Ways = 1024, 16
	cfg.MSHRs, cfg.PrefQueueCap = 32, 32
	cfg.FDP.TInterval = 64
	cfg.Attribution = attr
	return cfg
}

// cancelBefore, as singleSkipCase's cancelAt, cancels the context before
// the run starts.
const cancelBefore = ^uint64(0)

// singleSkipCase runs cfg on one core with a collecting tracer; cancelAt,
// when non-zero, cancels the run from the tracer at that interval.
func singleSkipCase(name string, cfg Config, cancelAt uint64) skipCase {
	return skipCase{name: name, wantErr: cancelAt != 0, run: func(t *testing.T) skipOutcome {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelAt == cancelBefore {
			cancel()
		}
		var tr collectTracer
		c := cfg
		c.Tracer = TracerFunc(func(ev DecisionEvent) {
			tr.TraceDecision(ev)
			if ev.Interval == cancelAt {
				cancel()
			}
		})
		res, err := RunContext(ctx, c)
		res.Elapsed = 0
		return skipOutcome{res: res, events: [][]DecisionEvent{tr.events}, err: err}
	}}
}

// mustDropWritebacks wraps a single-core case that must park (and so
// retry) writebacks, failing it when none was dropped.
func mustDropWritebacks(c skipCase) skipCase {
	run := c.run
	c.run = func(t *testing.T) skipOutcome {
		out := run(t)
		if out.res.(Result).DRAM.Dropped[mem.Writeback] == 0 {
			t.Fatal("no writeback parked; the case is vacuous")
		}
		return out
	}
	return c
}

func multiSkipCase(name string, kind PrefetcherKind, attr bool, ws ...string) skipCase {
	return skipCase{name: name, run: func(t *testing.T) skipOutcome {
		var mc MultiConfig
		trs := make([]collectTracer, len(ws))
		for i, w := range ws {
			cfg := skipGrid(kind, w, attr)
			cfg.Tracer = &trs[i]
			mc.Cores = append(mc.Cores, cfg)
		}
		res, err := RunMultiContext(context.Background(), mc)
		for i := range res.Cores {
			res.Cores[i].Elapsed = 0
		}
		out := skipOutcome{res: res, err: err}
		for _, tr := range trs {
			out.events = append(out.events, tr.events)
		}
		return out
	}}
}

func smtSkipCase(name string, kind PrefetcherKind, attr bool, ws ...string) skipCase {
	return skipCase{name: name, run: func(t *testing.T) skipOutcome {
		var tr collectTracer
		base := skipGrid(kind, "", attr)
		base.WarmupInsts = 0 // unsupported in SMT mode
		base.Tracer = &tr
		res, err := RunSMTContext(context.Background(), SMTConfig{Base: base, Workloads: ws})
		return skipOutcome{res: res, events: [][]DecisionEvent{tr.events}, err: err}
	}}
}

// skipCases lists the gate's cases, keeping every gridStride-th case of
// the engine-golden grid and every other case.
func skipCases(gridStride int) []skipCase {
	kinds := []PrefetcherKind{PrefNone, PrefStream, PrefGHB, PrefStride, PrefNextLine, PrefDahlgren, PrefHybrid}
	var cases, grid []skipCase
	for _, attr := range []bool{false, true} {
		mode := "plain"
		if attr {
			mode = "attr"
		}
		// The engine-golden grid: every workload × prefetcher under FDP
		// and at static level 4, plus the prefetch cache.
		grid = grid[:0]
		for _, info := range workload.List() {
			w := info.Name
			for _, k := range kinds {
				grid = append(grid, singleSkipCase(fmt.Sprintf("%s/%s/%s/fdp", mode, w, k), skipGrid(k, w, attr), 0))
				if k == PrefNone {
					continue
				}
				cfg := skipGrid(k, w, attr)
				cfg.StaticLevel = 4
				cfg.FDP.DynamicAggressiveness, cfg.FDP.DynamicInsertion = false, false
				grid = append(grid, singleSkipCase(fmt.Sprintf("%s/%s/%s/static4", mode, w, k), cfg, 0))
			}
			pc := skipGrid(PrefStream, w, attr)
			pc.PrefCacheBlocks, pc.PrefCacheWays = 64, 0
			grid = append(grid, singleSkipCase(fmt.Sprintf("%s/%s/stream/pcache", mode, w), pc, 0))
		}
		for i := 0; i < len(grid); i += gridStride {
			cases = append(cases, grid[i])
		}
		// The multi-core and SMT golden pairs.
		cases = append(cases,
			multiSkipCase(mode+"/multi/seqstream+chaserand/stream", PrefStream, attr, "seqstream", "chaserand"),
			multiSkipCase(mode+"/multi/multistream+scanmod/ghb", PrefGHB, attr, "multistream", "scanmod"),
			smtSkipCase(mode+"/smt/multistream+mixedphase/stream", PrefStream, attr, "multistream", "mixedphase"),
			smtSkipCase(mode+"/smt/seqstream+chaseseq/hybrid", PrefHybrid, attr, "seqstream", "chaseseq"),
		)
		// Cancels from the tracer and before the run: the drain, the
		// stop cycle and the CancelError must land where ticking puts
		// them. A pre-cancelled run stops at its first poll, so a skip
		// across a cancel-stride boundary would move its stop cycle.
		cases = append(cases,
			singleSkipCase(mode+"/cancel/chaserand", skipGrid(PrefStream, "chaserand", attr), 40),
			singleSkipCase(mode+"/precancelled/chaserand", skipGrid(PrefStream, "chaserand", attr), cancelBefore))
		// A cycle budget far short of the target, and a run wedged by an
		// L1 latency of 2^32 cycles: each fails at the cycle ticking
		// reaches, which the error names for the stall detector.
		budget := skipGrid(PrefStream, "chaserand", attr)
		budget.MaxCycles = 50_000
		stall := skipGrid(PrefStream, "seqstream", attr)
		stall.L1Latency = maxLatency
		for _, c := range []skipCase{
			singleSkipCase(mode+"/budget/chaserand", budget, 0),
			singleSkipCase(mode+"/stall/seqstream", stall, 0),
		} {
			c.wantErr = true
			cases = append(cases, c)
		}
		// Over-horizon latencies park every hit in the wheel's far list.
		far1 := skipGrid(PrefStream, "seqstream", attr)
		far1.L1Latency, far1.MaxInsts, far1.WarmupInsts = 5_000, 4_000, 1_000
		far2 := skipGrid(PrefStream, "mixedphase", attr)
		far2.L2Latency, far2.MaxInsts, far2.WarmupInsts = 4_500, 4_000, 1_000
		cases = append(cases, singleSkipCase(mode+"/far/l1", far1, 0), singleSkipCase(mode+"/far/l2", far2, 0))
		// A small L2, two-entry DRAM queues and four MSHRs: demands and
		// writebacks park and retry, the cycles the skip leaves alone.
		for _, w := range []string{"multistream", "scanmod", "stackwalk"} {
			cfg := skipGrid(PrefStream, w, attr)
			cfg.L2Blocks, cfg.L2Ways, cfg.MSHRs, cfg.DRAM.QueueCap = 256, 4, 4, 2
			c := singleSkipCase(mode+"/backpressure/"+w, cfg, 0)
			if w != "multistream" { // it stores nothing
				c = mustDropWritebacks(c)
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// withSkip runs f with the dead-cycle skip switched on or off.
func withSkip(on bool, f func()) {
	defer func(prev bool) { skipDead = prev }(skipDead)
	skipDead = on
	f()
}

// TestSkipMatchesTicking is the differential gate behind the dead-cycle
// skip: every case run with the skip on must match, field for field, the
// same case ticked through every cycle — its Result, every DecisionEvent
// and its error (a CancelError's stop cycle included). The cases cover
// the engine-golden grid, the multi-core and SMT golden pairs, each with
// attribution off and on, warm-up, cancellation, the cycle budget, a
// stalled run, over-horizon wheel events, and parked demand and
// writeback retries.
// It flips a package variable, so no test in this package runs in
// parallel.
//
// The race detector slows the loop about twentyfold and has nothing to
// find in this one-goroutine comparison, so race and -short runs check
// every eighth grid case (all the other cases still run); a plain
// `go test` checks the whole grid.
func TestSkipMatchesTicking(t *testing.T) {
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 8
	}
	for _, c := range skipCases(stride) {
		t.Run(c.name, func(t *testing.T) {
			var skipped, ticked skipOutcome
			withSkip(true, func() { skipped = c.run(t) })
			withSkip(false, func() { ticked = c.run(t) })
			if (ticked.err != nil) != c.wantErr {
				t.Fatalf("ticked run returned error %v, want an error: %v", ticked.err, c.wantErr)
			}
			if !reflect.DeepEqual(skipped.err, ticked.err) {
				t.Fatalf("error differs:\nskip: %v\ntick: %v", skipped.err, ticked.err)
			}
			if !reflect.DeepEqual(skipped.res, ticked.res) {
				t.Errorf("result differs:\nskip: %+v\ntick: %+v", skipped.res, ticked.res)
			}
			if !reflect.DeepEqual(skipped.events, ticked.events) {
				t.Errorf("decision events differ")
			}
		})
	}
}
