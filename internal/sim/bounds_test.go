package sim

import (
	"context"
	"math"
	"testing"
)

// Analytical cross-validation: the simulator's steady-state throughput on
// regular workloads must agree with closed-form bounds derived from the
// machine parameters. These tests catch silent timing-model regressions
// that unit tests on individual components cannot.

// seqstream geometry: 8 loads per 64 B block, 3 nops per load.
const (
	seqInstsPerBlock = 32.0
)

func runBound(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBusBoundWithPrefetching: with a perfectly accurate, very aggressive
// prefetcher, seqstream is limited by the data bus: one block per
// Transfer cycles, i.e. IPC -> instsPerBlock/Transfer.
func TestBusBoundWithPrefetching(t *testing.T) {
	cfg := Conventional(PrefStream, 5)
	cfg.Workload = "seqstream"
	cfg.MaxInsts = 400_000
	res := runBound(t, cfg)
	bound := seqInstsPerBlock / float64(cfg.DRAM.Transfer)
	if res.IPC > bound*1.02 {
		t.Fatalf("IPC %.4f exceeds the bus bound %.4f", res.IPC, bound)
	}
	if res.IPC < bound*0.90 {
		t.Fatalf("IPC %.4f more than 10%% below the bus bound %.4f — bandwidth underutilized", res.IPC, bound)
	}
}

// TestLatencyBoundWithoutPrefetching: without a prefetcher, seqstream is
// limited by ROB-bounded memory-level parallelism: the 128-entry window
// holds 4 blocks of work, so one block completes per minLatency/4 cycles.
func TestLatencyBoundWithoutPrefetching(t *testing.T) {
	cfg := Default()
	cfg.Workload = "seqstream"
	cfg.MaxInsts = 400_000
	res := runBound(t, cfg)
	minLatency := float64(cfg.DRAM.CmdLatency + cfg.DRAM.RowHit + cfg.DRAM.Transfer + cfg.L2Latency)
	mlp := float64(cfg.CPU.ROB) / seqInstsPerBlock
	bound := seqInstsPerBlock / (minLatency / mlp)
	if res.IPC > bound*1.10 {
		t.Fatalf("IPC %.4f exceeds the MLP-latency bound %.4f", res.IPC, bound)
	}
	if res.IPC < bound*0.75 {
		t.Fatalf("IPC %.4f far below the MLP-latency bound %.4f", res.IPC, bound)
	}
}

// TestRetireWidthBound: a cache-resident loop cannot exceed the retire
// width, and must come close to it.
func TestRetireWidthBound(t *testing.T) {
	cfg := Default()
	cfg.Workload = "tinyloop"
	cfg.MaxInsts = 200_000
	res := runBound(t, cfg)
	width := float64(cfg.CPU.Width)
	if res.IPC > width {
		t.Fatalf("IPC %.3f exceeds the retire width %v", res.IPC, width)
	}
	if res.IPC < width*0.5 {
		t.Fatalf("IPC %.3f below half the retire width on an L1-resident loop", res.IPC)
	}
}

// TestSerialChaseLatencyBound: chaseseq without prefetching is one
// dependent block per round trip: IPC = instsPerHop / minLatency, within
// modeling slack.
func TestSerialChaseLatencyBound(t *testing.T) {
	cfg := Default()
	cfg.Workload = "chaseseq"
	cfg.MaxInsts = 100_000
	res := runBound(t, cfg)
	minLatency := float64(cfg.DRAM.CmdLatency + cfg.DRAM.RowHit + cfg.DRAM.Transfer + cfg.L2Latency)
	const instsPerHop = 16.0
	bound := instsPerHop / minLatency
	if ratio := res.IPC / bound; ratio < 0.80 || ratio > 1.25 {
		t.Fatalf("serial chase IPC %.4f vs bound %.4f (ratio %.2f)", res.IPC, bound, ratio)
	}
}

// TestBPKIMatchesGeometry: seqstream touches one new block per 32
// instructions, so BPKI must be ~1000/32 regardless of prefetching (all
// blocks are eventually demanded exactly once).
func TestBPKIMatchesGeometry(t *testing.T) {
	for _, pf := range []PrefetcherKind{PrefNone, PrefStream} {
		cfg := Default()
		if pf != PrefNone {
			cfg = Conventional(pf, 5)
		}
		cfg.Workload = "seqstream"
		cfg.MaxInsts = 400_000
		res := runBound(t, cfg)
		want := 1000 / seqInstsPerBlock
		if math.Abs(res.BPKI-want) > want*0.05 {
			t.Fatalf("%s BPKI %.2f, want ~%.2f", pf, res.BPKI, want)
		}
	}
}

// TestBandwidthConservation: bus reads + prefetches must equal L2 fills
// from memory (every transaction delivers exactly one block).
func TestBandwidthConservation(t *testing.T) {
	cfg := Conventional(PrefStream, 5)
	cfg.Workload = "mixedphase"
	cfg.MaxInsts = 200_000
	res := runBound(t, cfg)
	c := res.Counters
	fills := c.L2DemandMisses + c.PrefetchFilled // misses fill on return; timely prefetch fills
	transactions := c.BusReads + c.BusPrefetches
	// Fills can trail transactions by in-flight requests at the cutoff.
	if transactions > fills+uint64(cfg.MSHRs) {
		t.Fatalf("bus transactions %d vs fills %d: more than an MSHR file of slack", transactions, fills)
	}
	if fills > transactions+uint64(cfg.MSHRs) {
		t.Fatalf("fills %d exceed transactions %d", fills, transactions)
	}
}

// TestHalfBandwidthHalvesStreamIPC: doubling Transfer must halve
// bus-bound throughput, confirming the bandwidth knob is live.
func TestHalfBandwidthHalvesStreamIPC(t *testing.T) {
	base := Conventional(PrefStream, 5)
	base.Workload = "seqstream"
	base.MaxInsts = 300_000
	full := runBound(t, base)
	half := base
	half.DRAM.Transfer *= 2
	halved := runBound(t, half)
	ratio := halved.IPC / full.IPC
	if ratio < 0.45 || ratio > 0.58 {
		t.Fatalf("half-bandwidth IPC ratio %.2f, want ~0.5", ratio)
	}
}

// TestDoubledLatencyScalesNoPrefetchIPC: with prefetching off and an
// MLP-limited stream, IPC is inversely proportional to memory latency.
func TestDoubledLatencyScalesNoPrefetchIPC(t *testing.T) {
	base := Default()
	base.Workload = "seqstream"
	base.MaxInsts = 300_000
	r1 := runBound(t, base)
	slow := base
	slow.DRAM.RowHit *= 2
	slow.DRAM.RowConflict *= 2
	r2 := runBound(t, slow)
	ratio := r2.IPC / r1.IPC
	// Latency roughly doubles (command/transfer components stay fixed).
	if ratio < 0.45 || ratio > 0.70 {
		t.Fatalf("doubled-latency IPC ratio %.2f, want ~0.55", ratio)
	}
}
