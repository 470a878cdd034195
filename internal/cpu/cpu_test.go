package cpu

import (
	"testing"
)

// scriptSource replays a fixed op list, then pads with nops.
type scriptSource struct {
	ops []MicroOp
	pos int
}

func (s *scriptSource) Name() string { return "script" }
func (s *scriptSource) Next() MicroOp {
	if s.pos >= len(s.ops) {
		return MicroOp{Kind: Nop}
	}
	op := s.ops[s.pos]
	s.pos++
	return op
}

// fixedMem completes every load a fixed number of ticks later by calling
// CompleteLoad on the CPU under test (set before the first tick).
type fixedMem struct {
	latency int
	c       *CPU
	pending []struct {
		left   int
		robIdx int32
		seq    uint64
	}
	issues   int
	perCycle []int
	cycleNow int
}

func (m *fixedMem) access(addr, pc uint64, store bool, robIdx int32, seq uint64) {
	m.issues++
	for len(m.perCycle) <= m.cycleNow {
		m.perCycle = append(m.perCycle, 0)
	}
	m.perCycle[m.cycleNow]++
	if robIdx >= 0 {
		m.pending = append(m.pending, struct {
			left   int
			robIdx int32
			seq    uint64
		}{m.latency, robIdx, seq})
	}
}

func (m *fixedMem) tick() {
	m.cycleNow++
	keep := m.pending[:0]
	for _, p := range m.pending {
		p.left--
		if p.left <= 0 {
			m.c.CompleteLoad(p.robIdx, p.seq)
		} else {
			keep = append(keep, p)
		}
	}
	m.pending = keep
}

// run drives the CPU until target retirements, returning elapsed cycles.
func run(t *testing.T, c *CPU, m *fixedMem, target uint64, maxCycles int) uint64 {
	t.Helper()
	m.c = c
	for i := 0; i < maxCycles; i++ {
		m.tick()
		c.Tick()
		if c.Retired() >= target {
			return uint64(i + 1)
		}
	}
	t.Fatalf("did not retire %d ops in %d cycles (retired %d)", target, maxCycles, c.Retired())
	return 0
}

func nops(n int) []MicroOp {
	ops := make([]MicroOp, n)
	return ops
}

func TestNopIPCEqualsWidth(t *testing.T) {
	m := &fixedMem{latency: 1}
	c := New(Config{Width: 8, ROB: 128, LoadPorts: 4}, &scriptSource{ops: nops(0)}, m.access)
	cycles := run(t, c, m, 8000, 2000)
	ipc := float64(c.Retired()) / float64(cycles)
	if ipc < 7.5 {
		t.Fatalf("nop IPC = %.2f, want ~8", ipc)
	}
}

func TestLoadBlocksRetirement(t *testing.T) {
	m := &fixedMem{latency: 100}
	ops := append([]MicroOp{{Kind: Load, Addr: 64}}, nops(7)...)
	c := New(DefaultConfig(), &scriptSource{ops: ops}, m.access)
	cycles := run(t, c, m, 8, 1000)
	if cycles < 100 {
		t.Fatalf("8 ops retired in %d cycles; the 100-cycle load did not gate retirement", cycles)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	m := &fixedMem{latency: 100}
	var ops []MicroOp
	for i := 0; i < 8; i++ {
		ops = append(ops, MicroOp{Kind: Load, Addr: uint64(i) * 64})
	}
	c := New(DefaultConfig(), &scriptSource{ops: ops}, m.access)
	cycles := run(t, c, m, 8, 1000)
	if cycles > 120 {
		t.Fatalf("8 independent loads took %d cycles; they must overlap (~100)", cycles)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	m := &fixedMem{latency: 50}
	var ops []MicroOp
	for i := 0; i < 4; i++ {
		ops = append(ops, MicroOp{Kind: Load, Addr: uint64(i) * 64, Dep: 1})
	}
	c := New(DefaultConfig(), &scriptSource{ops: ops}, m.access)
	cycles := run(t, c, m, 4, 1000)
	if cycles < 4*50 {
		t.Fatalf("4 chained loads took %d cycles, want >= 200 (serialized)", cycles)
	}
}

func TestDepDistanceTwoSkipsOne(t *testing.T) {
	// Two interleaved chains with Dep=2 each: pairs overlap, so 4 loads
	// take ~2 serial latencies, not 4.
	m := &fixedMem{latency: 50}
	var ops []MicroOp
	for i := 0; i < 4; i++ {
		ops = append(ops, MicroOp{Kind: Load, Addr: uint64(i) * 64, Dep: 2})
	}
	c := New(DefaultConfig(), &scriptSource{ops: ops}, m.access)
	cycles := run(t, c, m, 4, 1000)
	if cycles >= 4*50 || cycles < 2*50 {
		t.Fatalf("two Dep=2 chains took %d cycles, want ~100", cycles)
	}
}

func TestLoadPortLimit(t *testing.T) {
	m := &fixedMem{latency: 10}
	var ops []MicroOp
	for i := 0; i < 64; i++ {
		ops = append(ops, MicroOp{Kind: Load, Addr: uint64(i) * 64})
	}
	c := New(Config{Width: 8, ROB: 128, LoadPorts: 4}, &scriptSource{ops: ops}, m.access)
	run(t, c, m, 64, 1000)
	for cyc, n := range m.perCycle {
		if n > 4 {
			t.Fatalf("cycle %d issued %d loads, port limit is 4", cyc, n)
		}
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	m := &fixedMem{latency: 500}
	var ops []MicroOp
	for i := 0; i < 16; i++ {
		ops = append(ops, MicroOp{Kind: Store, Addr: uint64(i) * 64})
	}
	c := New(DefaultConfig(), &scriptSource{ops: ops}, m.access)
	cycles := run(t, c, m, 16, 100)
	if cycles > 10 {
		t.Fatalf("16 stores took %d cycles; stores must retire through the store buffer", cycles)
	}
	if c.RetiredStores() != 16 {
		t.Fatalf("retired stores = %d", c.RetiredStores())
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// With a 16-entry ROB and 15 nops after each load, at most ~1 load is
	// in flight: N loads take ~N*latency.
	m := &fixedMem{latency: 100}
	var ops []MicroOp
	for i := 0; i < 4; i++ {
		ops = append(ops, MicroOp{Kind: Load, Addr: uint64(i) * 64})
		ops = append(ops, nops(15)...)
	}
	c := New(Config{Width: 8, ROB: 16, LoadPorts: 4}, &scriptSource{ops: ops}, m.access)
	cycles := run(t, c, m, 64, 10000)
	if cycles < 350 {
		t.Fatalf("ROB-limited loads took %d cycles, want ~400", cycles)
	}
	if c.StallROBFull() == 0 {
		t.Fatal("no ROB-full stalls recorded")
	}
}

func TestRetiredLoadCount(t *testing.T) {
	m := &fixedMem{latency: 3}
	ops := []MicroOp{{Kind: Load, Addr: 1}, {Kind: Store, Addr: 2}, {Kind: Nop}}
	c := New(DefaultConfig(), &scriptSource{ops: ops}, m.access)
	run(t, c, m, 3, 100)
	if c.RetiredLoads() != 1 || c.RetiredStores() != 1 {
		t.Fatalf("loads=%d stores=%d", c.RetiredLoads(), c.RetiredStores())
	}
}

func TestDepOnNonexistentLoadIssuesImmediately(t *testing.T) {
	m := &fixedMem{latency: 10}
	ops := []MicroOp{{Kind: Load, Addr: 64, Dep: 5}} // no 5-back load exists
	c := New(DefaultConfig(), &scriptSource{ops: ops}, m.access)
	cycles := run(t, c, m, 1, 100)
	if cycles > 20 {
		t.Fatalf("orphan-dep load took %d cycles", cycles)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Width != 8 || cfg.ROB != 128 || cfg.LoadPorts != 4 {
		t.Fatalf("default config = %+v", cfg)
	}
	// Zero values are replaced by defaults in New.
	c := New(Config{}, &scriptSource{}, (&fixedMem{latency: 1}).access)
	if len(c.rob) != 128 {
		t.Fatalf("zero-config ROB = %d", len(c.rob))
	}
}

// TestDependentChainPastLoadRing runs a chain of dependent loads through
// an 8,192-entry ROB, so more than 4,096 loads are in flight at once: the
// load ring must keep each outstanding load's slot, and its waiter, until
// the load completes, however large the ROB.
func TestDependentChainPastLoadRing(t *testing.T) {
	const chain = 10_000
	ops := make([]MicroOp, chain)
	for i := range ops {
		ops[i] = MicroOp{Kind: Load, Addr: uint64(i) * 64, Dep: 1}
	}
	m := &fixedMem{latency: 4}
	c := New(Config{Width: 8, ROB: 8192, LoadPorts: 4}, &scriptSource{ops: ops}, m.access)
	run(t, c, m, chain, 8*chain)
}
