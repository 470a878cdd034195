package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fdpsim/internal/cache"
	"fdpsim/internal/cpu"
	"fdpsim/internal/workload"
)

// quickCfg returns a small, fast configuration for integration tests.
func quickCfg(w string) Config {
	cfg := Default()
	cfg.Workload = w
	cfg.MaxInsts = 30_000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.MaxInsts = 0 },
		func(c *Config) { c.L1Blocks = 0 },
		func(c *Config) { c.StaticLevel = 6 },
		func(c *Config) { c.Prefetcher = "bogus" },
		func(c *Config) { c.Prefetcher = PrefNone; c.StaticLevel = 3 },
		// A negative size would run the machine its zero names, and an
		// initial level outside 0..5 starts the counter outside Table 1.
		func(c *Config) { c.CPU.ROB = -1 },
		func(c *Config) { c.StreamEntries = -1 },
		func(c *Config) { c.L1IBlocks = -1 },
		func(c *Config) { c.PrefCacheBlocks = -1 },
		func(c *Config) { c.PrefQueueCap = -1 },
		func(c *Config) { c.FDP.InitLevel = -1 },
		func(c *Config) { c.FDP.InitLevel = 6 },
	}
	for i, mutate := range cases {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("case %d: Validate = %v, want ErrInvalidConfig", i, err)
		}
	}
	valid := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.CPU.ROB = 0 },
		func(c *Config) { c.StreamEntries = 0 },
		func(c *Config) { c.L1IBlocks = 0 },
		func(c *Config) { c.PrefCacheBlocks = 0 },
		func(c *Config) { c.PrefQueueCap = 0 },
		func(c *Config) { c.FDP.InitLevel = 0 },
		func(c *Config) { c.FDP.InitLevel = 5 },
	}
	for i, mutate := range valid {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid case %d: Validate = %v", i, err)
		}
	}
}

// TestValidateWidthBounds holds each per-cycle width and the block shift
// to its range, for direct runs (Config.Validate) and for queued jobs
// (Job.Validate's tighter limits). Below zero and past the maximum are
// rejected; zero (the constructors' default, or a drain that never
// drains) and each maximum itself are accepted.
func TestValidateWidthBounds(t *testing.T) {
	for _, f := range []struct {
		name        string
		set         func(c *Config, v int)
		max, jobMax int
	}{
		{"CPU.Width", func(c *Config, v int) { c.CPU.Width = v }, maxWidth, maxJobWidth},
		{"CPU.LoadPorts", func(c *Config, v int) { c.CPU.LoadPorts = v }, maxWidth, maxJobWidth},
		{"DRAM.ScanWindow", func(c *Config, v int) { c.DRAM.ScanWindow = v }, maxWidth, maxJobWidth},
		{"PrefDrainPerTick", func(c *Config, v int) { c.PrefDrainPerTick = v }, maxWidth, maxJobWidth},
		{"BlockShift", func(c *Config, v int) { c.BlockShift = uint(v) }, maxBlockShift, maxJobBlockShift},
	} {
		for _, tc := range []struct {
			v            int
			cfgOK, jobOK bool
		}{
			{-1, false, false},
			{0, true, true},
			{f.jobMax, true, true},
			{f.jobMax + 1, true, false},
			{f.max, true, false},
			{f.max + 1, false, false},
		} {
			cfg := WithFDP(PrefStream)
			f.set(&cfg, tc.v)
			if err := cfg.Validate(); (err == nil) != tc.cfgOK || err != nil && !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s=%d: Config.Validate = %v, want accepted %v", f.name, tc.v, err, tc.cfgOK)
			}
			if err := (Job{Cfg: cfg}).Validate(); (err == nil) != tc.jobOK || err != nil && !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s=%d: Job.Validate = %v, want accepted %v", f.name, tc.v, err, tc.jobOK)
			}
		}
	}
}

// TestValidateRejectsPanickingGeometry pins a probe of every integer
// Config field: each single-field value below once passed Validate and
// then panicked while the topology was built or on the first
// pollution-filter access, which in a service worker took the whole
// daemon down. Geometries the constructors accept must stay valid.
func TestValidateRejectsPanickingGeometry(t *testing.T) {
	invalid := []struct {
		name   string
		mutate func(*Config)
	}{
		{"L1Blocks=12", func(c *Config) { c.L1Blocks = 12 }},
		{"L1Blocks=1000", func(c *Config) { c.L1Blocks = 1000 }},
		{"L1Ways=3", func(c *Config) { c.L1Ways = 3 }},
		{"L1Ways=1000", func(c *Config) { c.L1Ways = 1000 }},
		{"L1IBlocks=12", func(c *Config) { c.L1IBlocks = 12 }},
		{"L1IBlocks=1000", func(c *Config) { c.L1IBlocks = 1000 }},
		{"L1IWays=3", func(c *Config) { c.L1IWays = 3 }},
		{"L2Blocks=1000", func(c *Config) { c.L2Blocks = 1000 }},
		{"L2Ways=3", func(c *Config) { c.L2Ways = 3 }},
		{"L2Ways=100", func(c *Config) { c.L2Ways = 100 }},
		{"MSHRs=-1", func(c *Config) { c.MSHRs = -1 }},
		{"DRAM.Banks=-1", func(c *Config) { c.DRAM.Banks = -1 }},
		{"DRAM.Banks=0", func(c *Config) { c.DRAM.Banks = 0 }},
		{"DRAM.Banks=3", func(c *Config) { c.DRAM.Banks = 3 }},
		{"DRAM.BlocksPerRow=-1", func(c *Config) { c.DRAM.BlocksPerRow = -1 }},
		{"DRAM.BlocksPerRow=0", func(c *Config) { c.DRAM.BlocksPerRow = 0 }},
		{"DRAM.BlocksPerRow=100", func(c *Config) { c.DRAM.BlocksPerRow = 100 }},
		{"DRAM.QueueCap=-1", func(c *Config) { c.DRAM.QueueCap = -1 }},
		{"FDP.FilterBits=3", func(c *Config) { c.FDP.FilterBits = 3 }},
		{"FDP.FilterBits=32", func(c *Config) { c.FDP.FilterBits = 32 }},
		{"FDP.FilterBits=1000", func(c *Config) { c.FDP.FilterBits = 1000 }},
		{"prefetch cache 1000 blocks in 16 ways", func(c *Config) { c.PrefCacheBlocks, c.PrefCacheWays = 1000, 16 }},
		{"MSHRs=0", func(c *Config) { c.MSHRs = 0 }},
		{"DRAM.QueueCap=0", func(c *Config) { c.DRAM.QueueCap = 0 }},
		// Latencies whose due cycles would wrap.
		{"L1Latency=2^64-2", func(c *Config) { c.L1Latency = 1<<64 - 2 }},
		{"L2Latency=2^32+1", func(c *Config) { c.L2Latency = 1<<32 + 1 }},
		{"DRAM.CmdLatency=2^40", func(c *Config) { c.DRAM.CmdLatency = 1 << 40 }},
		{"DRAM.RowHit=2^32+1", func(c *Config) { c.DRAM.RowHit = 1<<32 + 1 }},
		{"DRAM.RowConflict=2^32+1", func(c *Config) { c.DRAM.RowConflict = 1<<32 + 1 }},
		{"DRAM.BusyHit=2^32+1", func(c *Config) { c.DRAM.BusyHit = 1<<32 + 1 }},
		{"DRAM.BusyConflict=2^32+1", func(c *Config) { c.DRAM.BusyConflict = 1<<32 + 1 }},
		{"DRAM.Transfer=2^64-1", func(c *Config) { c.DRAM.Transfer = 1<<64 - 1 }},
	}
	for _, tc := range invalid {
		cfg := WithFDP(PrefStream)
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: Validate = %v, want ErrInvalidConfig", tc.name, err)
		}
	}

	valid := []struct {
		name   string
		mutate func(*Config)
	}{
		{"fully associative L2", func(c *Config) { c.L2Ways = 0 }},
		{"FDP.FilterBits=64", func(c *Config) { c.FDP.FilterBits = 64 }},
		{"default L1I geometry", func(c *Config) { c.L1IBlocks, c.L1IWays = 0, 3 }},
		{"unbuilt L1I", func(c *Config) { c.ModelIFetch, c.L1IBlocks = false, 1000 }},
		{"fully associative prefetch cache", func(c *Config) { c.PrefCacheBlocks = 32 }},
		{"16-way prefetch cache", func(c *Config) { c.PrefCacheBlocks, c.PrefCacheWays = 512, 16 }},
		{"latencies at 2^32", func(c *Config) {
			c.L1Latency, c.L2Latency, c.DRAM.CmdLatency, c.DRAM.Transfer = 1<<32, 1<<32, 1<<32, 1<<32
		}},
	}
	for _, tc := range valid {
		cfg := WithFDP(PrefStream)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	cfg := Default()
	cfg.Workload = "nope"
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunBasicCountersConsistent(t *testing.T) {
	res, err := RunContext(context.Background(), quickCfg("seqstream"))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Retired < 30_000 {
		t.Fatalf("retired %d < target", c.Retired)
	}
	if c.Cycles == 0 || res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("IPC = %v over %d cycles", res.IPC, c.Cycles)
	}
	if c.L1Misses > c.L1Accesses {
		t.Fatal("more L1 misses than accesses")
	}
	if c.L2DemandMisses > c.L2DemandAccesses {
		t.Fatal("more L2 misses than accesses")
	}
	if c.BusReads == 0 {
		t.Fatal("streaming workload produced no bus reads")
	}
	if res.BPKI <= 0 {
		t.Fatal("BPKI must be positive for a streaming workload")
	}
}

func TestEveryWorkloadRunsUnderEveryPrefetcher(t *testing.T) {
	kinds := []PrefetcherKind{PrefNone, PrefStream, PrefGHB, PrefStride, PrefNextLine}
	for _, w := range workload.Names() {
		for _, k := range kinds {
			cfg := quickCfg(w)
			cfg.MaxInsts = 15_000
			cfg.Prefetcher = k
			if k != PrefNone {
				cfg.StaticLevel = 5
			}
			if _, err := RunContext(context.Background(), cfg); err != nil {
				t.Errorf("%s under %s: %v", w, k, err)
			}
		}
	}
}

func TestFDPRunsOnAllPrefetchers(t *testing.T) {
	for _, k := range []PrefetcherKind{PrefStream, PrefGHB, PrefStride, PrefNextLine} {
		cfg := WithFDP(k)
		cfg.Workload = "chaserand"
		cfg.MaxInsts = 90_000
		cfg.FDP.TInterval = 256
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Intervals == 0 {
			t.Errorf("%s: no FDP intervals completed", k)
		}
	}
}

func TestPrefetchCountersConsistent(t *testing.T) {
	cfg := Conventional(PrefStream, 5)
	cfg.Workload = "seqstream"
	cfg.MaxInsts = 100_000
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.PrefSent == 0 {
		t.Fatal("very aggressive prefetcher sent nothing on seqstream")
	}
	if c.PrefUsed > c.PrefSent+c.PrefetchFilled {
		t.Fatalf("used %d exceeds sent %d", c.PrefUsed, c.PrefSent)
	}
	if c.PrefLate > c.PrefUsed {
		t.Fatalf("late %d exceeds used %d", c.PrefLate, c.PrefUsed)
	}
	if res.Accuracy < 0 || res.Accuracy > 1 || res.Lateness < 0 || res.Lateness > 1 {
		t.Fatalf("metrics out of range: acc=%v late=%v", res.Accuracy, res.Lateness)
	}
	if c.PrefIssued < c.PrefSent {
		t.Fatalf("issued %d < sent %d", c.PrefIssued, c.PrefSent)
	}
	if c.BusPrefetches != c.PrefSent {
		t.Fatalf("bus prefetches %d != sent %d", c.BusPrefetches, c.PrefSent)
	}
}

func TestPrefetchingHelpsStreaming(t *testing.T) {
	base, err := RunContext(context.Background(), quickCfg("seqstream"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("seqstream")
	cfg.Prefetcher = PrefStream
	cfg.StaticLevel = 5
	pf, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pf.IPC < base.IPC*1.3 {
		t.Fatalf("prefetching IPC %.3f vs %.3f: expected a clear win on seqstream", pf.IPC, base.IPC)
	}
	if pf.Accuracy < 0.9 {
		t.Fatalf("seqstream accuracy %.2f, want > 0.9", pf.Accuracy)
	}
}

func TestAggressivePrefetchingHurtsHostile(t *testing.T) {
	base, err := RunContext(context.Background(), quickCfg("chaserand"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("chaserand")
	cfg.Prefetcher = PrefStream
	cfg.StaticLevel = 5
	pf, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pf.IPC > base.IPC*0.9 {
		t.Fatalf("VA IPC %.3f vs no-pf %.3f: chaserand must lose clearly", pf.IPC, base.IPC)
	}
	if pf.Accuracy > 0.4 {
		t.Fatalf("chaserand accuracy %.2f, want < 0.4 (the paper's hurt threshold)", pf.Accuracy)
	}
}

func TestFDPRecoversHostile(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run invariant")
	}
	mk := func(f func(*Config)) Result {
		cfg := Default()
		cfg.Workload = "chaserand"
		cfg.MaxInsts = 200_000
		cfg.FDP.TInterval = 1024
		f(&cfg)
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	va := mk(func(c *Config) { c.Prefetcher = PrefStream; c.StaticLevel = 5 })
	fdp := mk(func(c *Config) {
		c.Prefetcher = PrefStream
		c.FDP.DynamicAggressiveness = true
		c.FDP.DynamicInsertion = true
	})
	if fdp.IPC < va.IPC*1.2 {
		t.Fatalf("FDP %.3f vs VA %.3f: FDP must clearly recover chaserand", fdp.IPC, va.IPC)
	}
	if fdp.BPKI > va.BPKI*0.8 {
		t.Fatalf("FDP BPKI %.1f vs VA %.1f: FDP must save bandwidth", fdp.BPKI, va.BPKI)
	}
	if fdp.FinalLevel > 2 {
		t.Fatalf("FDP settled at level %d on chaserand, want throttled", fdp.FinalLevel)
	}
}

func TestWritebackTraffic(t *testing.T) {
	cfg := quickCfg("scanmod")
	cfg.MaxInsts = 120_000
	cfg.L2Blocks = 1024 // small L2 so dirty blocks are evicted in-run
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.BusWritebacks == 0 {
		t.Fatal("store-heavy sweep produced no writebacks")
	}
	if res.Counters.RetiredStores == 0 {
		t.Fatal("scanmod retired no stores")
	}
}

func TestPrefetchCachePath(t *testing.T) {
	cfg := Conventional(PrefStream, 5)
	cfg.Workload = "seqstream"
	cfg.MaxInsts = 100_000
	cfg.PrefCacheBlocks = 512 // 32 KB
	cfg.PrefCacheWays = 16
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PrefCacheHits == 0 {
		t.Fatal("prefetch cache never hit on seqstream")
	}
}

func TestTinyMSHRStillCompletes(t *testing.T) {
	cfg := quickCfg("multistream")
	cfg.Prefetcher = PrefStream
	cfg.StaticLevel = 5
	cfg.MSHRs = 4
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("starved MSHR run produced no progress")
	}
}

func TestTinyQueuesStillComplete(t *testing.T) {
	cfg := quickCfg("multistream")
	cfg.Prefetcher = PrefStream
	cfg.StaticLevel = 5
	cfg.DRAM.QueueCap = 4
	cfg.PrefQueueCap = 2
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCycleBudgetAborts: every topology honours Config.MaxCycles.
func TestCycleBudgetAborts(t *testing.T) {
	cfg := quickCfg("chaseseq")
	cfg.MaxCycles = 1000 // far too few
	ctx := context.Background()
	_, single := RunContext(ctx, cfg)
	_, multi := RunMultiContext(ctx, MultiConfig{Cores: []Config{cfg, cfg}})
	_, smt := RunSMTContext(ctx, SMTConfig{Base: cfg, Workloads: []string{"chaseseq", "chaseseq"}})
	for name, err := range map[string]error{"single-core": single, "multi-core": multi, "SMT": smt} {
		if err == nil || !strings.Contains(err.Error(), "exceeded cycle budget 1000 ") {
			t.Errorf("%s: cycle budget not enforced: %v", name, err)
		}
	}
}

func TestRunSourceCustomWorkload(t *testing.T) {
	cfg := Default()
	cfg.MaxInsts = 10_000
	src := &countingSource{}
	res, err := RunSourceContext(context.Background(), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RetiredLoads == 0 {
		t.Fatal("custom source loads not retired")
	}
}

type countingSource struct{ n uint64 }

func (s *countingSource) Name() string { return "counting" }
func (s *countingSource) Next() cpu.MicroOp {
	s.n++
	if s.n%5 == 0 {
		return cpu.MicroOp{Kind: cpu.Load, Addr: s.n * 8, PC: 0x400000}
	}
	return cpu.MicroOp{Kind: cpu.Nop}
}

func TestDeterministicResults(t *testing.T) {
	cfg := quickCfg("spmv")
	cfg.Prefetcher = PrefStream
	cfg.StaticLevel = 3
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.Counters != b.Counters {
		t.Fatal("identical configs produced different results")
	}
}

func TestStaticInsertionPositionsRun(t *testing.T) {
	for _, pos := range []cache.InsertPos{cache.PosLRU, cache.PosLRU4, cache.PosMID, cache.PosMRU} {
		cfg := quickCfg("seqstream")
		cfg.Prefetcher = PrefStream
		cfg.StaticLevel = 5
		cfg.FDP.StaticInsertion = pos
		if _, err := RunContext(context.Background(), cfg); err != nil {
			t.Errorf("insertion %v: %v", pos, err)
		}
	}
}

func TestLowPotentialMostlyQuiet(t *testing.T) {
	cfg := quickCfg("tinyloop")
	cfg.Prefetcher = PrefStream
	cfg.StaticLevel = 5
	cfg.MaxInsts = 100_000
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BPKI > 5 {
		t.Fatalf("tinyloop BPKI = %.1f, want near zero", res.BPKI)
	}
	if res.IPC < 3 {
		t.Fatalf("tinyloop IPC = %.2f, want cache-resident speed", res.IPC)
	}
}
