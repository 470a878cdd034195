package workload

import (
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"fdpsim/internal/cpu"
)

func TestRegistryShape(t *testing.T) {
	if got := len(MemoryIntensive()); got != 17 {
		t.Fatalf("memory-intensive set has %d workloads, want the paper's 17", got)
	}
	if got := len(LowPotential()); got != 9 {
		t.Fatalf("low-potential set has %d workloads, want the paper's 9", got)
	}
	if got := len(Names()); got != 26 {
		t.Fatalf("total workloads = %d, want 26", got)
	}
}

func TestNamesUniqueAndDescribed(t *testing.T) {
	seen := make(map[string]bool)
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate workload name %q", n)
		}
		seen[n] = true
		if About(n) == "" {
			t.Errorf("workload %q has no description", n)
		}
	}
	if About("nonexistent") != "" {
		t.Error("About of unknown workload non-empty")
	}
}

func TestNewUnknownErrors(t *testing.T) {
	if _, err := New("nope", 1); err == nil {
		t.Fatal("New of unknown workload did not error")
	}
}

func TestDeterminism(t *testing.T) {
	for _, n := range Names() {
		a, _ := New(n, 42)
		b, _ := New(n, 42)
		for i := 0; i < 5000; i++ {
			if a.Next() != b.Next() {
				t.Errorf("%s: op %d differs for identical seeds", n, i)
				break
			}
		}
	}
}

func TestAllWorkloadsEmitValidOps(t *testing.T) {
	for _, n := range Names() {
		src, err := New(n, 1)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if src.Name() != n {
			t.Errorf("%s: Name() = %q", n, src.Name())
		}
		loads, stores, totalMem := 0, 0, 0
		for i := 0; i < 20000; i++ {
			op := src.Next()
			switch op.Kind {
			case cpu.Load:
				loads++
				totalMem++
			case cpu.Store:
				stores++
				totalMem++
			case cpu.Nop:
			default:
				t.Fatalf("%s: invalid op kind %d", n, op.Kind)
			}
			if op.Kind != cpu.Nop && op.PC == 0 {
				t.Fatalf("%s: memory op with zero PC", n)
			}
			if op.Dep < 0 || op.Dep > 64 {
				t.Fatalf("%s: unreasonable dep distance %d", n, op.Dep)
			}
		}
		if loads == 0 {
			t.Errorf("%s: no loads in 20000 ops", n)
		}
		if totalMem == 20000 {
			t.Errorf("%s: no compute at all", n)
		}
	}
}

// TestGeneratorQueuesNeverGrow: each generator's queue is built for the
// longest turn its fill emits, so once built a generator allocates
// nothing, past mixedphase's first phase change at 300k ops too.
func TestGeneratorQueuesNeverGrow(t *testing.T) {
	// The collector's own goroutines allocate when a cycle starts, so it
	// stays off while the count is taken.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range Names() {
		src, err := New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 450_000; i++ {
			src.Next()
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got != 0 {
			t.Errorf("%s: %d allocations in 450k ops, want 0", n, got)
		}
	}
}

func TestSeqStreamAscendingUnitStride(t *testing.T) {
	src, _ := New("seqstream", 1)
	var last uint64
	first := true
	for i := 0; i < 4000; i++ {
		op := src.Next()
		if op.Kind != cpu.Load {
			continue
		}
		if !first && op.Addr != last+8 {
			t.Fatalf("seqstream addr %d after %d, want +8", op.Addr, last)
		}
		first = false
		last = op.Addr
	}
}

func TestRevStreamDescends(t *testing.T) {
	src, _ := New("revstream", 1)
	lastByPC := make(map[uint64]uint64)
	for i := 0; i < 4000; i++ {
		op := src.Next()
		if op.Kind != cpu.Load {
			continue
		}
		if prev, ok := lastByPC[op.PC]; ok && op.Addr >= prev {
			t.Fatalf("revstream pc %#x addr %d did not descend from %d", op.PC, op.Addr, prev)
		}
		lastByPC[op.PC] = op.Addr
	}
}

func TestChaseWorkloadsHaveDependences(t *testing.T) {
	for _, n := range []string{"chaseseq", "chaserand", "spmv", "binsearch"} {
		src, _ := New(n, 1)
		deps := 0
		for i := 0; i < 5000; i++ {
			if op := src.Next(); op.Kind == cpu.Load && op.Dep > 0 {
				deps++
			}
		}
		if deps == 0 {
			t.Errorf("%s: no dependent loads", n)
		}
	}
}

func TestScanModEmitsStores(t *testing.T) {
	src, _ := New("scanmod", 1)
	stores := 0
	for i := 0; i < 5000; i++ {
		if src.Next().Kind == cpu.Store {
			stores++
		}
	}
	if stores == 0 {
		t.Fatal("scanmod emitted no stores")
	}
}

func TestLowPotentialFootprints(t *testing.T) {
	// Every low-potential workload must touch fewer distinct blocks than
	// the L2 holds (16384) over a long window — that is what makes it
	// low-potential.
	for _, n := range LowPotential() {
		if n == "binsearch" || n == "blockedmm" {
			continue // these intentionally spill a little
		}
		src, _ := New(n, 1)
		blocks := make(map[uint64]bool)
		for i := 0; i < 200000; i++ {
			op := src.Next()
			if op.Kind != cpu.Nop {
				blocks[op.Addr>>6] = true
			}
		}
		if len(blocks) > 16384 {
			t.Errorf("%s touches %d blocks, larger than the L2", n, len(blocks))
		}
	}
}

func TestMemoryIntensiveFootprints(t *testing.T) {
	// Memory-intensive workloads must overflow the L2 (or at least come
	// close) to generate sustained misses.
	for _, n := range MemoryIntensive() {
		src, _ := New(n, 1)
		blocks := make(map[uint64]bool)
		for i := 0; i < 400000; i++ {
			op := src.Next()
			if op.Kind != cpu.Nop {
				blocks[op.Addr>>6] = true
			}
		}
		if len(blocks) < 2000 {
			t.Errorf("%s touches only %d blocks in 400k ops", n, len(blocks))
		}
	}
}

func TestRNGDeterministicAndNonZero(t *testing.T) {
	r1, r2 := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		a, b := r1.next(), r2.next()
		if a != b {
			t.Fatal("rng not deterministic")
		}
		if a == 0 {
			t.Fatal("xorshift emitted zero")
		}
	}
	if newRNG(0).next() == 0 {
		t.Fatal("zero seed not remapped")
	}
	if newRNG(1).n(1) != 0 {
		t.Fatal("n(1) must be 0")
	}
	if newRNG(1).n(0) != 0 {
		t.Fatal("n(0) must be 0, not panic")
	}
}

// TestHashAddrInFootprint: hashAddr always lands block-aligned inside the
// footprint.
func TestHashAddrInFootprint(t *testing.T) {
	f := func(a uint64, fpRaw uint16) bool {
		fp := (uint64(fpRaw%64) + 1) * 1 << 20
		h := hashAddr(a, fp)
		return h < fp && h%BlockBytes == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixedPhaseAlternates(t *testing.T) {
	src, _ := New("mixedphase", 1)
	// Drain past one phase boundary and check both behaviours appear:
	// strictly ascending unit-stride loads (stream) and dependent loads
	// (chase).
	sawDep, sawStream := false, false
	var lastSeq uint64
	streak := 0
	for i := 0; i < 450000; i++ {
		op := src.Next()
		if op.Kind != cpu.Load {
			continue
		}
		if op.Dep > 0 {
			sawDep = true
		}
		if op.Addr == lastSeq+8 {
			streak++
			if streak > 100 {
				sawStream = true
			}
		} else {
			streak = 0
		}
		lastSeq = op.Addr
	}
	if !sawDep || !sawStream {
		t.Fatalf("mixedphase phases missing: dep=%v stream=%v", sawDep, sawStream)
	}
}
