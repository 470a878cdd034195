package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fdpCfg returns a fast FDP configuration whose sampling intervals close
// quickly, so lifecycle tests exercise the interval-boundary checks.
func fdpCfg(w string) Config {
	cfg := WithFDP(PrefStream)
	cfg.Workload = w
	cfg.MaxInsts = 2_000_000
	cfg.FDP.TInterval = 256
	return cfg
}

func TestRunContextCancelWithinOneInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := fdpCfg("chaserand")
	var cancelAt Snapshot
	cfg.Progress = func(s Snapshot) {
		if s.Final || cancelAt.Interval != 0 {
			return
		}
		cancelAt = s
		cancel()
	}

	res, err := RunContext(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("error %v does not match ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CancelError", err)
	}
	if !res.Partial {
		t.Error("cancelled run not marked Partial")
	}
	if res.Counters.Retired >= cfg.MaxInsts {
		t.Errorf("retired %d reached the %d target despite cancellation", res.Counters.Retired, cfg.MaxInsts)
	}
	if ce.Retired != res.Counters.Retired || ce.Target != cfg.MaxInsts {
		t.Errorf("CancelError{Retired: %d, Target: %d} disagrees with Result (retired %d, target %d)",
			ce.Retired, ce.Target, res.Counters.Retired, cfg.MaxInsts)
	}
	if cancelAt.Interval == 0 {
		t.Fatal("progress sink never ran")
	}
	// The cancel fired inside the sink for interval cancelAt.Interval, so
	// the run must stop before another full sampling interval elapses.
	if res.Intervals > cancelAt.Interval+1 {
		t.Errorf("run continued for %d intervals after cancelling at interval %d",
			res.Intervals-cancelAt.Interval, cancelAt.Interval)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, fdpCfg("seqstream"))
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v", err)
	}
	if !res.Partial {
		t.Error("result not marked Partial")
	}
	// The stride fallback must notice the dead context almost immediately.
	if res.Counters.Retired > 100_000 {
		t.Errorf("retired %d instructions under a pre-cancelled context", res.Counters.Retired)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	cfg := fdpCfg("seqstream")
	cfg.MaxInsts = 50_000_000 // far more than a millisecond of simulation
	res, err := RunContext(ctx, cfg)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}
	if !res.Partial || res.Counters.Retired >= cfg.MaxInsts {
		t.Errorf("Partial=%v retired=%d after deadline expiry", res.Partial, res.Counters.Retired)
	}
}

func TestProgressSnapshotsMonotonicAndFinalMatchesResult(t *testing.T) {
	cfg := fdpCfg("mixedphase")
	cfg.MaxInsts = 200_000
	var snaps []Snapshot
	cfg.Progress = func(s Snapshot) { snaps = append(snaps, s) }

	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots for an FDP run")
	}
	var prev Snapshot
	for i, s := range snaps[:len(snaps)-1] {
		if s.Final {
			t.Fatalf("snapshot %d marked Final before the end of the run", i)
		}
		if s.Retired < prev.Retired || s.Cycle < prev.Cycle {
			t.Errorf("snapshot %d went backwards: retired %d->%d, cycle %d->%d",
				i, prev.Retired, s.Retired, prev.Cycle, s.Cycle)
		}
		if s.Interval != prev.Interval+1 {
			t.Errorf("snapshot %d: interval %d after %d", i, s.Interval, prev.Interval)
		}
		if s.Target != cfg.MaxInsts {
			t.Errorf("snapshot %d: target %d, want %d", i, s.Target, cfg.MaxInsts)
		}
		prev = s
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Fatal("last snapshot not marked Final")
	}
	if last.Retired != res.Counters.Retired || last.Cycle != res.Counters.Cycles {
		t.Errorf("final snapshot retired=%d cycle=%d, result retired=%d cycles=%d",
			last.Retired, last.Cycle, res.Counters.Retired, res.Counters.Cycles)
	}
	if last.IPC != res.IPC {
		t.Errorf("final snapshot IPC %v != result IPC %v", last.IPC, res.IPC)
	}
	if last.Interval != res.Intervals {
		t.Errorf("final snapshot interval %d != result intervals %d", last.Interval, res.Intervals)
	}
	if res.Partial {
		t.Error("completed run marked Partial")
	}
}

// TestRunContextBackgroundMatchesRun checks that the cancellation poll
// perturbs nothing: a run under a live context that never fires equals
// the background run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := fdpCfg("seqstream")
	cfg.MaxInsts = 60_000
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Errorf("counters diverge:\nbackground: %+v\nlive:       %+v", a.Counters, b.Counters)
	}
	if a.IPC != b.IPC || a.Partial || b.Partial {
		t.Errorf("IPC %v vs %v, Partial %v/%v", a.IPC, b.IPC, a.Partial, b.Partial)
	}
}

// TestRunMultiContextCancel: every core stops within one sampling
// interval of a cancel fired from core 0's first interval, and CancelError
// reports post-warm-up progress.
func TestRunMultiContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mc MultiConfig
	for _, w := range []string{"seqstream", "chaserand"} {
		cfg := fdpCfg(w)
		cfg.WarmupInsts = 1_000
		mc.Cores = append(mc.Cores, cfg)
	}
	var cancelAt Snapshot
	mc.Cores[0].Progress = func(s Snapshot) {
		if s.Final || cancelAt.Interval != 0 {
			return
		}
		cancelAt = s
		cancel()
	}

	res, err := RunMultiContext(ctx, mc)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled multicore run: err = %v", err)
	}
	if !res.Partial {
		t.Error("multicore result not marked Partial")
	}
	var maxRetired uint64
	for i, c := range res.Cores {
		if !c.Partial {
			t.Errorf("core %d not marked Partial", i)
		}
		if c.Counters.Retired >= mc.Cores[i].MaxInsts {
			t.Errorf("core %d retired %d, reached target despite cancellation", i, c.Counters.Retired)
		}
		maxRetired = max(maxRetired, c.Counters.Retired)
	}
	if cancelAt.Interval == 0 {
		t.Fatal("progress sink never ran")
	}
	if got := res.Cores[0].Intervals; got > cancelAt.Interval+1 {
		t.Errorf("core 0 ran %d intervals past the cancel at interval %d", got-cancelAt.Interval, cancelAt.Interval)
	}
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Retired != maxRetired {
		t.Errorf("CancelError %+v, want Retired %d (largest post-warm-up count)", ce, maxRetired)
	}
}

// TestRunSMTContextCancel: the shared engine stops within one sampling
// interval of a cancel fired from its first interval.
func TestRunSMTContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	base := fdpCfg("seqstream")
	var cancelAt uint64
	base.Progress = func(s Snapshot) {
		if cancelAt == 0 {
			cancelAt = s.Interval
			cancel()
		}
	}
	tr := &collectTracer{}
	base.Tracer = tr
	smt := SMTConfig{Base: base, Workloads: []string{"seqstream", "chaserand"}}

	res, err := RunSMTContext(ctx, smt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled SMT run: err = %v", err)
	}
	if !res.Partial {
		t.Error("SMT result not marked Partial")
	}
	if cancelAt == 0 {
		t.Fatal("progress sink never ran")
	}
	if got := uint64(len(tr.events)); got > cancelAt+1 {
		t.Errorf("shared engine ran %d intervals past the cancel at interval %d", got-cancelAt, cancelAt)
	}
}
