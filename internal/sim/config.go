// Package sim wires the simulator together: the out-of-order core, the
// L1/L2 cache hierarchy with MSHRs and bounded queues, the DRAM/bus model,
// the prefetcher, and the FDP feedback engine, reproducing the baseline
// processor of Table 3.
package sim

import (
	"fmt"

	"fdpsim/internal/cache"
	"fdpsim/internal/control"
	"fdpsim/internal/core"
	"fdpsim/internal/cpu"
	"fdpsim/internal/mem"
	"fdpsim/internal/prefetch"
)

// PrefetcherKind selects the hardware prefetcher.
type PrefetcherKind string

// Available prefetchers.
const (
	PrefNone     PrefetcherKind = "none"
	PrefStream   PrefetcherKind = "stream"
	PrefGHB      PrefetcherKind = "ghb"
	PrefStride   PrefetcherKind = "stride"
	PrefNextLine PrefetcherKind = "nextline"
	// PrefDahlgren is the related-work baseline: adaptive sequential
	// prefetching throttled by accuracy alone (Section 6.1).
	PrefDahlgren PrefetcherKind = "dahlgren"
	// PrefHybrid composes the stream and PC-stride engines.
	PrefHybrid PrefetcherKind = "hybrid"
	// PrefCustom selects the prefetcher supplied in Config.Custom,
	// letting users study their own designs under FDP control.
	PrefCustom PrefetcherKind = "custom"
)

// Config is one simulation's full parameter set.
type Config struct {
	Workload string
	Seed     uint64
	MaxInsts uint64 // retire target; the run stops when reached
	// WarmupInsts, when non-zero, discards all statistics gathered before
	// that many instructions have retired (the caches, prefetcher and FDP
	// state stay warm), mirroring the paper's fast-forward methodology.
	// MaxInsts counts only post-warmup instructions.
	WarmupInsts uint64

	CPU cpu.Config

	BlockShift uint // log2 of the cache-block size (6 = 64 B)

	L1Blocks  int
	L1Ways    int
	L1Latency uint64

	// ModelIFetch enables the L1 instruction cache and fetch-stall
	// modeling (Table 3's 64 KB I-cache): dispatch stalls when the next
	// instruction block misses the L1I, and instruction blocks contend
	// for the unified L2 — the mechanism behind the paper's Section 5.9
	// gcc observation.
	ModelIFetch bool
	L1IBlocks   int
	L1IWays     int

	L2Blocks  int
	L2Ways    int
	L2Latency uint64
	MSHRs     int

	PrefQueueCap     int // Prefetch Request Queue entries
	PrefDrainPerTick int // prefetch requests moved into the L2 per cycle

	DRAM mem.Config

	Prefetcher PrefetcherKind
	// Custom is the prefetcher instance used when Prefetcher is
	// PrefCustom. A custom prefetcher must not be shared across runs.
	Custom prefetch.Prefetcher
	// StaticLevel pins the prefetcher at a Table 1 aggressiveness (1..5).
	// Zero defers to FDP's Dynamic Configuration Counter.
	StaticLevel int
	// StreamEntries sizes the stream prefetcher (64 in the baseline).
	StreamEntries int
	// PerStreamRamp enables the stream prefetcher's per-stream
	// adaptation (footnote 8's alternative to global feedback): each
	// tracking entry ramps from Very Conservative toward the global
	// level as its stream proves itself.
	PerStreamRamp bool

	FDP core.Config

	// Controller names the feedback decision policy from the
	// internal/control registry ("fdp", "static-1".."static-5",
	// "dspatch-dual", "tree"; see `fdpsim -list`). Empty selects the
	// paper's Table 2 policy — the engine's built-in default — and is
	// bit-identical to "fdp". The controller only has effect where the
	// FDP Dynamic* switches allow: Level under DynamicAggressiveness,
	// insertion under DynamicInsertion.
	Controller string
	// ControllerModel is the serialized decision-tree model for the
	// "tree" controller (JSON; see docs/CONTROLLERS.md). Nil selects the
	// embedded default model.
	ControllerModel []byte

	// PrefCacheBlocks, when non-zero, adds a separate prefetch cache
	// (Section 5.7 comparison): prefetches fill it instead of the L2 and
	// demand hits migrate blocks into the L2.
	PrefCacheBlocks int
	PrefCacheWays   int // 0 = fully associative

	// KeepFDPHistory keeps every interval's DecisionEvent — the events
	// Tracer receives — in Result.History (for adaptation-timeline
	// analysis).
	KeepFDPHistory bool

	// Attribution enables the cycle-accounting and bandwidth-attribution
	// layer: top-down per-cycle stall classification, bus-occupancy and
	// DRAM-pressure telemetry, and prefetch-timeliness histograms. Results
	// land in Result.Attribution and in the per-interval Sample of
	// DecisionEvent. Purely observational — simulation timing and all
	// other counters are bit-identical with it on or off.
	Attribution bool

	// Tracer, when set, receives one DecisionEvent per FDP interval
	// boundary — the run's one per-interval stream: the feedback loop's
	// full decision trace plus the post-warm-up cycle and retire stamps
	// progress displays need (see trace.go, and internal/obs for sinks).
	// It is observation-only: excluded from JSON round-trips (functions
	// and interfaces do not serialize) and from the fingerprint, and a
	// nil tracer costs the simulation loop one branch per interval.
	Tracer Tracer `json:"-"`

	// MaxCycles is the cycle budget after which a run aborts (a safety
	// valve). 0 selects 500 cycles per instruction of warm-up plus target,
	// summed over a hierarchy's threads, and at least 10M; a multi-core
	// run takes its largest core budget.
	MaxCycles uint64
}

// Default returns the paper's baseline: Table 3 processor, very
// aggressive conventional stream prefetching disabled by default (choose
// with Prefetcher/StaticLevel), FDP mechanisms off.
func Default() Config {
	fdp := core.DefaultConfig()
	fdp.DynamicAggressiveness = false
	fdp.DynamicInsertion = false
	fdp.StaticInsertion = cache.PosMRU
	return Config{
		Workload:         "seqstream",
		Seed:             1,
		MaxInsts:         1_000_000,
		CPU:              cpu.DefaultConfig(),
		BlockShift:       6,
		L1Blocks:         1024, // 64 KB
		L1Ways:           4,
		L1Latency:        2,
		ModelIFetch:      true,
		L1IBlocks:        1024, // 64 KB
		L1IWays:          4,
		L2Blocks:         16384, // 1 MB
		L2Ways:           16,
		L2Latency:        10,
		MSHRs:            128,
		PrefQueueCap:     128,
		PrefDrainPerTick: 2,
		DRAM:             mem.DefaultConfig(),
		Prefetcher:       PrefNone,
		StaticLevel:      0,
		StreamEntries:    64,
		FDP:              fdp,
		MaxCycles:        0,
	}
}

// Conventional returns a baseline configuration with a conventional
// (static) prefetcher at the given Table 1 level.
func Conventional(kind PrefetcherKind, level int) Config {
	cfg := Default()
	cfg.Prefetcher = kind
	cfg.StaticLevel = level
	return cfg
}

// WithFDP returns a configuration running the given prefetcher under full
// FDP control (Dynamic Aggressiveness + Dynamic Insertion).
func WithFDP(kind PrefetcherKind) Config {
	cfg := Default()
	cfg.Prefetcher = kind
	cfg.StaticLevel = 0
	cfg.FDP = core.DefaultConfig()
	return cfg
}

// Validate sanity-checks structural parameters. Every failure wraps
// ErrInvalidConfig, so callers can branch with errors.Is.
func (c *Config) Validate() error {
	if c.MaxInsts == 0 {
		return fmt.Errorf("%w: MaxInsts must be positive", ErrInvalidConfig)
	}
	if c.L1Blocks <= 0 || c.L2Blocks <= 0 {
		return fmt.Errorf("%w: cache sizes must be positive", ErrInvalidConfig)
	}
	// Reject every geometry the constructors panic on: a panic in a
	// service worker would take the whole daemon down.
	for _, g := range [...]struct {
		name         string
		blocks, ways int
		built        bool
	}{
		{"L1D", c.L1Blocks, c.L1Ways, true},
		{"L1I", c.L1IBlocks, c.L1IWays, c.ModelIFetch && c.L1IBlocks > 0},
		{"L2", c.L2Blocks, c.L2Ways, true},
		{"prefetch cache", c.PrefCacheBlocks, c.PrefCacheWays, c.PrefCacheBlocks > 0},
	} {
		// cache.New's rule: ways outside 1..blocks mean fully associative,
		// and the ways must split the blocks into a power-of-two set count.
		ways := g.ways
		if ways <= 0 || ways > g.blocks {
			ways = g.blocks
		}
		if g.built && (g.blocks%ways != 0 || !pow2(g.blocks/ways)) {
			return fmt.Errorf("%w: %s of %d blocks in %d ways: the set count must be a power of two",
				ErrInvalidConfig, g.name, g.blocks, g.ways)
		}
	}
	if c.MSHRs <= 0 || c.DRAM.QueueCap <= 0 {
		return fmt.Errorf("%w: MSHRs and DRAM.QueueCap must be positive", ErrInvalidConfig)
	}
	if !pow2(c.DRAM.Banks) || !pow2(c.DRAM.BlocksPerRow) {
		return fmt.Errorf("%w: DRAM.Banks and DRAM.BlocksPerRow must be positive powers of two", ErrInvalidConfig)
	}
	if bits := c.FDP.FilterBits; bits != 0 && (bits < 64 || !pow2(bits)) {
		return fmt.Errorf("%w: FDP.FilterBits %d must be 0 (4096) or a power of two of at least 64", ErrInvalidConfig, bits)
	}
	if c.StaticLevel < 0 || c.StaticLevel > 5 {
		return fmt.Errorf("%w: StaticLevel %d out of range 0..5", ErrInvalidConfig, c.StaticLevel)
	}
	switch c.Prefetcher {
	case PrefNone, PrefStream, PrefGHB, PrefStride, PrefNextLine, PrefDahlgren, PrefHybrid:
	case PrefCustom:
		if c.Custom == nil {
			return fmt.Errorf("%w: PrefCustom requires Config.Custom", ErrInvalidConfig)
		}
	default:
		return fmt.Errorf("%w: unknown prefetcher %q", ErrInvalidConfig, c.Prefetcher)
	}
	if c.Prefetcher == PrefNone && c.StaticLevel != 0 {
		return fmt.Errorf("%w: StaticLevel set without a prefetcher", ErrInvalidConfig)
	}
	if !control.Known(c.Controller) {
		return fmt.Errorf("%w: unknown controller %q (have %v)", ErrInvalidConfig, c.Controller, control.Names())
	}
	if len(c.ControllerModel) > 0 {
		if c.Controller != "tree" {
			return fmt.Errorf("%w: ControllerModel set but Controller is %q, want \"tree\"", ErrInvalidConfig, c.Controller)
		}
		if _, err := control.LoadTree(c.ControllerModel, c.FDP.Thresholds); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	return nil
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }
