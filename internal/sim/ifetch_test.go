package sim

import (
	"context"
	"testing"

	"fdpsim/internal/cpu"
)

// codeSource emits nops across a large code footprint: every op carries an
// explicit PC advancing 4 bytes, wrapping over `blocks` instruction blocks.
type codeSource struct {
	pc     uint64
	blocks uint64
	n      uint64
}

func (s *codeSource) Name() string { return "code" }
func (s *codeSource) Next() cpu.MicroOp {
	fpc := 0x10000000 + (s.pc % (s.blocks * 64))
	s.pc += 4
	s.n++
	return cpu.MicroOp{Kind: cpu.Nop, PC: fpc}
}

func TestIFetchMissesStallDispatch(t *testing.T) {
	cfg := Default()
	cfg.MaxInsts = 50_000
	// Code footprint of 4096 blocks (256 KB): four times the L1I.
	res, err := RunSourceContext(context.Background(), cfg, &codeSource{blocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.IFetchBlocks == 0 {
		t.Fatal("no instruction-block fetches recorded")
	}
	if c.IFetchL1Misses == 0 {
		t.Fatal("an L1I-exceeding code footprint produced no fetch misses")
	}
	if c.StallFetch == 0 {
		t.Fatal("fetch misses did not stall dispatch")
	}
	if res.IPC >= 7 {
		t.Fatalf("IPC %.2f unaffected by fetch stalls", res.IPC)
	}
	if c.BusReads == 0 {
		t.Fatal("code blocks never fetched from memory")
	}
}

func TestIFetchSmallCodeStaysResident(t *testing.T) {
	cfg := Default()
	// Long enough that the 128 compulsory code misses (each a full
	// serial front-end stall) amortize away.
	cfg.MaxInsts = 600_000
	// 128 blocks (8 KB) of code: fits the L1I after one pass.
	res, err := RunSourceContext(context.Background(), cfg, &codeSource{blocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.IFetchL1Misses > 200 {
		t.Fatalf("resident code suffered %d L1I misses", c.IFetchL1Misses)
	}
	if res.IPC < 4 {
		t.Fatalf("IPC %.2f too low for L1I-resident nops", res.IPC)
	}
}

func TestIFetchDisabled(t *testing.T) {
	cfg := Default()
	cfg.ModelIFetch = false
	cfg.MaxInsts = 50_000
	res, err := RunSourceContext(context.Background(), cfg, &codeSource{blocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.IFetchBlocks != 0 || res.Counters.StallFetch != 0 {
		t.Fatal("disabled fetch model still recorded activity")
	}
	if res.IPC < 7 {
		t.Fatalf("IPC %.2f: fetch stalls applied despite ModelIFetch=false", res.IPC)
	}
}

func TestIFetchSharesL2WithData(t *testing.T) {
	// Instruction blocks live in the unified L2: after the L1I misses, a
	// second pass must hit the L2, not memory.
	cfg := Default()
	cfg.MaxInsts = 400_000
	res, err := RunSourceContext(context.Background(), cfg, &codeSource{blocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	// 4096 compulsory block fetches; repeated passes must be L2 hits.
	if c.BusReads > 4200 {
		t.Fatalf("bus reads %d: code not retained in the unified L2", c.BusReads)
	}
	if c.L2DemandHits == 0 {
		t.Fatal("no L2 hits for recycled code blocks")
	}
}

func TestCodewalkGCCShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run invariant")
	}
	// Section 5.9's gcc observation, scaled: FDP must not lose to the
	// best conventional configuration on the code-footprint workload, and
	// must use less bandwidth than Very Aggressive.
	run := func(mut func(*Config)) Result {
		cfg := Default()
		cfg.Workload = "codewalk"
		cfg.MaxInsts = 300_000
		cfg.FDP.TInterval = 1024
		mut(&cfg)
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	va := run(func(c *Config) { c.Prefetcher = PrefStream; c.StaticLevel = 5 })
	fdp := run(func(c *Config) {
		c.Prefetcher = PrefStream
		c.FDP.DynamicAggressiveness = true
		c.FDP.DynamicInsertion = true
	})
	if fdp.IPC < va.IPC*0.97 {
		t.Fatalf("FDP %.3f loses to VA %.3f on codewalk", fdp.IPC, va.IPC)
	}
	if fdp.BPKI > va.BPKI {
		t.Fatalf("FDP BPKI %.1f above VA %.1f on codewalk", fdp.BPKI, va.BPKI)
	}
}
