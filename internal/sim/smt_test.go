package sim

import (
	"context"
	"testing"
)

func smtBase() Config {
	cfg := Conventional(PrefStream, 5)
	cfg.MaxInsts = 40_000
	return cfg
}

func TestRunSMTValidation(t *testing.T) {
	if _, err := RunSMTContext(context.Background(), SMTConfig{Base: smtBase()}); err == nil {
		t.Fatal("zero-thread SMT config accepted")
	}
	bad := smtBase()
	bad.MaxInsts = 0
	if _, err := RunSMTContext(context.Background(), SMTConfig{Base: bad, Workloads: []string{"seqstream"}}); err == nil {
		t.Fatal("invalid base config accepted")
	}
	warm := smtBase()
	warm.WarmupInsts = 1000
	if _, err := RunSMTContext(context.Background(), SMTConfig{Base: warm, Workloads: []string{"seqstream"}}); err == nil {
		t.Fatal("warmup accepted in SMT mode")
	}
	if _, err := RunSMTContext(context.Background(), SMTConfig{Base: smtBase(), Workloads: []string{"nope"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunSMTSingleThread(t *testing.T) {
	res, err := RunSMTContext(context.Background(), SMTConfig{Base: smtBase(), Workloads: []string{"seqstream"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 1 || res.Threads[0].IPC <= 0 {
		t.Fatalf("threads = %+v", res.Threads)
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("accuracy %.2f on a single stream thread", res.Accuracy)
	}
	if res.BPKI <= 0 {
		t.Fatal("no shared-hierarchy traffic recorded")
	}
}

func TestRunSMTThreadsShareTheL2(t *testing.T) {
	// A cache-resident thread sharing the hierarchy with a streaming
	// thread must lose some of its solo performance to cache contention.
	// A small L2 makes the contention visible at test scale.
	base := smtBase()
	base.L2Blocks = 512 // 32 KB
	base.FDP.TInterval = 256
	// Long enough that the streaming thread's eviction pressure reaches
	// the resident thread before it finishes.
	base.MaxInsts = 400_000
	solo, err := RunSMTContext(context.Background(), SMTConfig{Base: base, Workloads: []string{"tinyloop"}})
	if err != nil {
		t.Fatal(err)
	}
	duo, err := RunSMTContext(context.Background(), SMTConfig{Base: base, Workloads: []string{"tinyloop", "regionwalk"}})
	if err != nil {
		t.Fatal(err)
	}
	if duo.Threads[0].IPC >= solo.Threads[0].IPC {
		t.Fatalf("shared-L2 thread IPC %.3f not below solo %.3f",
			duo.Threads[0].IPC, solo.Threads[0].IPC)
	}
	if duo.AggregateIPC() <= duo.Threads[0].IPC {
		t.Fatal("aggregate IPC not above single thread")
	}
}

func TestRunSMTFDPSeesCombinedStream(t *testing.T) {
	base := WithFDP(PrefStream)
	base.MaxInsts = 60_000
	base.FDP.TInterval = 512
	// SMT results pin Counters.Intervals at zero; count the shared
	// engine's intervals through its decision trace instead.
	tr := &collectTracer{}
	base.Tracer = tr
	res, err := RunSMTContext(context.Background(), SMTConfig{Base: base, Workloads: []string{"seqstream", "chaserand"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.events) == 0 {
		t.Fatal("the shared FDP engine closed no intervals")
	}
	// The hostile thread's junk pollutes the shared estimate; the level
	// must not sit pinned at Very Aggressive.
	if res.FinalLevel == 5 && res.Pollution > 0.35 {
		t.Fatalf("shared FDP ignored pollution %.2f (level %d)", res.Pollution, res.FinalLevel)
	}
}
