package sim

import (
	"context"
	"testing"
)

func mcCfg(w string, fdp bool) Config {
	var cfg Config
	if fdp {
		cfg = WithFDP(PrefStream)
		cfg.FDP.TInterval = 1024
	} else {
		cfg = Conventional(PrefStream, 5)
	}
	cfg.Workload = w
	cfg.MaxInsts = 40_000
	return cfg
}

func TestRunMultiValidation(t *testing.T) {
	if _, err := RunMultiContext(context.Background(), MultiConfig{}); err == nil {
		t.Fatal("empty multi-core config accepted")
	}
	bad := mcCfg("seqstream", false)
	bad.MaxInsts = 0
	if _, err := RunMultiContext(context.Background(), MultiConfig{Cores: []Config{bad}}); err == nil {
		t.Fatal("invalid core config accepted")
	}
}

func TestRunMultiSingleCoreMatchesShape(t *testing.T) {
	res, err := RunMultiContext(context.Background(), MultiConfig{Cores: []Config{mcCfg("seqstream", false)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	c := res.Cores[0]
	if c.IPC <= 0 || c.Counters.Retired < 40_000 {
		t.Fatalf("core result: %+v", c.Result)
	}
	if c.Accuracy < 0.9 {
		t.Fatalf("single-core multi run accuracy %.2f", c.Accuracy)
	}
}

func TestRunMultiContentionSlowsCores(t *testing.T) {
	solo, err := RunMultiContext(context.Background(), MultiConfig{Cores: []Config{mcCfg("multistream", false)}})
	if err != nil {
		t.Fatal(err)
	}
	duo, err := RunMultiContext(context.Background(), MultiConfig{Cores: []Config{
		mcCfg("multistream", false), mcCfg("multistream", false),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range duo.Cores {
		if c.IPC >= solo.Cores[0].IPC {
			t.Fatalf("core %d IPC %.3f not slowed by bus sharing (solo %.3f)",
				i, c.IPC, solo.Cores[0].IPC)
		}
	}
}

func TestRunMultiPerCoreAttribution(t *testing.T) {
	quietCfg := mcCfg("tinyloop", false)
	quietCfg.MaxInsts = 80_000 // long enough that cold misses amortize away
	res, err := RunMultiContext(context.Background(), MultiConfig{Cores: []Config{
		mcCfg("seqstream", false), quietCfg,
	}})
	if err != nil {
		t.Fatal(err)
	}
	stream, quiet := res.Cores[0], res.Cores[1]
	if stream.Counters.BusReads == 0 {
		t.Fatal("stream core has no attributed bus reads")
	}
	if quiet.BPKI > stream.BPKI/4 {
		t.Fatalf("cache-resident core BPKI %.1f not far below stream core %.1f",
			quiet.BPKI, stream.BPKI)
	}
	if res.TotalBusAccesses == 0 || res.Cycles == 0 {
		t.Fatal("aggregate counters empty")
	}
}

func TestRunMultiFDPThrottlesHostileCore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run invariant")
	}
	mk := func(fdp bool) MultiResult {
		cfgA := mcCfg("seqstream", fdp)
		cfgB := mcCfg("chaserand", fdp)
		cfgA.MaxInsts, cfgB.MaxInsts = 60_000, 60_000
		res, err := RunMultiContext(context.Background(), MultiConfig{Cores: []Config{cfgA, cfgB}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	va := mk(false)
	fdp := mk(true)
	if fdp.Cores[1].FinalLevel > 2 {
		t.Fatalf("hostile core not throttled: level %d", fdp.Cores[1].FinalLevel)
	}
	if fdp.Cores[1].BPKI >= va.Cores[1].BPKI {
		t.Fatalf("FDP hostile-core BPKI %.1f not below VA %.1f",
			fdp.Cores[1].BPKI, va.Cores[1].BPKI)
	}
	if fdp.Cores[1].IPC <= va.Cores[1].IPC {
		t.Fatalf("FDP hostile-core IPC %.4f not above VA %.4f",
			fdp.Cores[1].IPC, va.Cores[1].IPC)
	}
}

func TestWarmupDiscardsColdStats(t *testing.T) {
	cold := Default()
	cold.Workload = "cachefit"
	cold.MaxInsts = 60_000
	rc, err := RunContext(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold
	warm.WarmupInsts = 300_000 // one full pass over the 512 KB array is 256K insts
	rw, err := RunContext(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Counters.Retired != 60_000 {
		t.Fatalf("post-warmup retired = %d", rw.Counters.Retired)
	}
	if rw.BPKI >= rc.BPKI/10 {
		t.Fatalf("warmed BPKI %.2f not far below cold %.2f (compulsory misses not discarded)",
			rw.BPKI, rc.BPKI)
	}
	if rw.IPC <= rc.IPC {
		t.Fatalf("warmed IPC %.3f not above cold %.3f", rw.IPC, rc.IPC)
	}
}

func TestDahlgrenAndHybridKindsRun(t *testing.T) {
	for _, k := range []PrefetcherKind{PrefDahlgren, PrefHybrid} {
		cfg := Conventional(k, 3)
		cfg.Workload = "seqstream"
		cfg.MaxInsts = 40_000
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Counters.PrefSent == 0 {
			t.Errorf("%s sent no prefetches on seqstream", k)
		}
	}
}
