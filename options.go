package fdpsim

import (
	"fmt"

	"fdpsim/internal/sim"
	"fdpsim/internal/workload"
)

// Option mutates a Config under construction. Options are applied in
// order, so later options win; range and consistency checks run once at
// the end of NewConfig via Config.Validate.
type Option func(*Config) error

// NewConfig assembles a simulation configuration with functional options.
// The base is the paper's Table 3 processor: with PrefNone it equals
// Default(); with any other prefetcher kind it equals WithFDP(kind), i.e.
// the prefetcher runs under full FDP control unless WithFixedAggressiveness
// pins it. The assembled configuration is validated before being returned;
// on failure the partially-built Config is returned alongside an error
// matching ErrInvalidConfig or ErrUnknownWorkload.
func NewConfig(kind PrefetcherKind, opts ...Option) (Config, error) {
	var cfg Config
	if kind == PrefNone {
		cfg = sim.Default()
	} else {
		cfg = sim.WithFDP(kind)
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// WithWorkload selects the instruction stream by name (see Workloads).
// Unknown names fail NewConfig with an error matching ErrUnknownWorkload.
func WithWorkload(name string) Option {
	return func(cfg *Config) error {
		if !workload.Exists(name) {
			return fmt.Errorf("%w %q (have %v)", ErrUnknownWorkload, name, workload.Names())
		}
		cfg.Workload = name
		return nil
	}
}

// WithInsts sets the retire target (post-warmup instructions).
func WithInsts(n uint64) Option {
	return func(cfg *Config) error { cfg.MaxInsts = n; return nil }
}

// WithWarmup discards statistics from the first n instructions while
// keeping all microarchitectural state warm (the paper's fast-forward
// methodology).
func WithWarmup(n uint64) Option {
	return func(cfg *Config) error { cfg.WarmupInsts = n; return nil }
}

// WithSeed sets the workload seed (structure is deterministic; the seed
// varies addresses).
func WithSeed(seed uint64) Option {
	return func(cfg *Config) error { cfg.Seed = seed; return nil }
}

// WithFixedAggressiveness pins the prefetcher at a Table 1 level
// (1 = very conservative .. 5 = very aggressive) and turns both FDP
// mechanisms off — the paper's "conventional prefetcher" configuration.
func WithFixedAggressiveness(level int) Option {
	return func(cfg *Config) error {
		cfg.StaticLevel = level
		cfg.FDP.DynamicAggressiveness = false
		cfg.FDP.DynamicInsertion = false
		cfg.FDP.StaticInsertion = PosMRU
		return nil
	}
}

// WithInsertion fixes the LRU-stack position for prefetch fills (the
// Section 3.3.2 policy space), disabling Dynamic Insertion.
func WithInsertion(pos InsertPos) Option {
	return func(cfg *Config) error {
		cfg.FDP.DynamicInsertion = false
		cfg.FDP.StaticInsertion = pos
		return nil
	}
}

// WithTInterval sets the FDP sampling interval in useful-block evictions
// (the paper's 8192 assumes 250M-instruction runs; shorter runs sample
// proportionally faster).
func WithTInterval(evictions uint64) Option {
	return func(cfg *Config) error { cfg.FDP.TInterval = evictions; return nil }
}

// WithCustomPrefetcher installs a user-defined prefetcher and selects
// PrefCustom. The instance must not be shared across runs.
func WithCustomPrefetcher(p Prefetcher) Option {
	return func(cfg *Config) error {
		cfg.Prefetcher = PrefCustom
		cfg.Custom = p
		return nil
	}
}

// WithTracer streams one DecisionEvent per FDP sampling interval to the
// given sink while the run is in flight. The sink is called from the
// simulation goroutine at every interval boundary; a sink that does I/O
// should decouple itself (or wrap itself in an async drop-not-block
// queue) rather than stall the retire loop. A nil tracer costs nothing.
func WithTracer(t Tracer) Option {
	return func(cfg *Config) error { cfg.Tracer = t; return nil }
}

// WithFDPHistory records every sampling interval's metrics and decisions
// in Result.History.
func WithFDPHistory() Option {
	return func(cfg *Config) error { cfg.KeepFDPHistory = true; return nil }
}

// WithMaxCycles sets the cycle budget after which a run aborts with an
// error, in every topology (a multi-core run uses its largest core
// budget). 0 keeps the default: 500 cycles per instruction of warm-up
// plus target, summed over a hierarchy's threads, and at least 10M.
func WithMaxCycles(n uint64) Option {
	return func(cfg *Config) error { cfg.MaxCycles = n; return nil }
}

// WithPrefetchCache adds a separate prefetch cache of the given geometry
// (the Section 5.7 comparison); ways 0 means fully associative.
func WithPrefetchCache(blocks, ways int) Option {
	return func(cfg *Config) error {
		cfg.PrefCacheBlocks = blocks
		cfg.PrefCacheWays = ways
		return nil
	}
}

// WithPerStreamRamp enables the stream prefetcher's per-stream adaptation
// (footnote 8's alternative to global feedback).
func WithPerStreamRamp() Option {
	return func(cfg *Config) error { cfg.PerStreamRamp = true; return nil }
}

// WithController selects the feedback decision policy by registry name
// ("fdp", "static-1".."static-5", "dspatch-dual", "tree"; see
// ControllerList). The empty name is the paper's Table 2 policy, bit-
// identical to "fdp". Unknown names fail NewConfig with an error
// matching ErrInvalidConfig.
func WithController(name string) Option {
	return func(cfg *Config) error { cfg.Controller = name; return nil }
}

// WithControllerModel supplies the decision-tree model (JSON, the
// docs/CONTROLLERS.md schema) for the "tree" controller and selects it.
// A nil or empty model keeps the embedded default.
func WithControllerModel(model []byte) Option {
	return func(cfg *Config) error {
		cfg.Controller = "tree"
		cfg.ControllerModel = model
		return nil
	}
}
