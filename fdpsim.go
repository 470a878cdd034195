// Package fdpsim is the public facade of the Feedback Directed Prefetching
// (FDP) reproduction: a cycle-level processor and memory-system simulator
// implementing the HPCA 2007 paper "Feedback Directed Prefetching:
// Improving the Performance and Bandwidth-Efficiency of Hardware
// Prefetchers" (Srinath, Mutlu, Kim, Patt), together with the stream,
// GHB C/DC and PC-stride prefetchers it evaluates and the synthetic
// workloads standing in for the SPEC CPU2000 benchmarks.
//
// Quick start: take one of the paper's configurations — Default (no
// prefetcher), Conventional (a prefetcher pinned at a Table 1 level) or
// WithFDP (full feedback control) — and set Config fields on it:
//
//	cfg := fdpsim.WithFDP(fdpsim.PrefStream)
//	cfg.Workload = "seqstream"
//	cfg.MaxInsts = 1_000_000
//	res, err := fdpsim.RunContext(context.Background(), cfg)
//	if err != nil { ... }
//	fmt.Printf("IPC=%.3f BPKI=%.1f accuracy=%.0f%%\n",
//		res.IPC, res.BPKI, 100*res.Accuracy)
//
// Runs are validated, cancellable and observable: RunContext rejects an
// invalid configuration (see Config.Validate) with an error matching
// ErrInvalidConfig and an unregistered workload with one matching
// ErrUnknownWorkload, honors context cancellation and deadlines
// (returning a partial Result plus an error matching ErrCancelled), and
// Config.Tracer streams one DecisionEvent per FDP sampling interval to a
// caller-supplied sink while the simulation is in flight; the returned
// Result carries the closing numbers.
package fdpsim

import (
	"context"

	"fdpsim/internal/cache"
	"fdpsim/internal/control"
	"fdpsim/internal/cpu"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/sim"
	"fdpsim/internal/workload"
	"fdpsim/internal/workload/spec"
)

// InsertPos names a depth in a cache set's LRU stack at which prefetched
// blocks are inserted (the paper's Section 3.3.2 policy space).
type InsertPos = cache.InsertPos

// Insertion positions, least- to most-recently-used.
const (
	PosLRU  = cache.PosLRU
	PosLRU4 = cache.PosLRU4
	PosMID  = cache.PosMID
	PosMRU  = cache.PosMRU
)

// Config is a full simulation configuration. See sim.Config.
type Config = sim.Config

// Result is a completed simulation's metrics. See sim.Result.
type Result = sim.Result

// PrefetcherKind selects the hardware prefetcher under study.
type PrefetcherKind = sim.PrefetcherKind

// Prefetcher is the interface a user-defined prefetcher implements to run
// under the simulator (and under FDP throttling) via PrefCustom.
type Prefetcher = prefetch.Prefetcher

// PrefetchEvent is the demand-access notification delivered to a
// prefetcher's Observe method.
type PrefetchEvent = prefetch.Event

// MicroOp and Source let callers supply custom instruction streams to
// RunSourceContext.
type (
	MicroOp = cpu.MicroOp
	Source  = cpu.Source
)

// Micro-op kinds for custom sources.
const (
	OpNop   = cpu.Nop
	OpLoad  = cpu.Load
	OpStore = cpu.Store
)

// Prefetcher kinds.
const (
	PrefNone     = sim.PrefNone
	PrefStream   = sim.PrefStream
	PrefGHB      = sim.PrefGHB
	PrefStride   = sim.PrefStride
	PrefNextLine = sim.PrefNextLine
	PrefDahlgren = sim.PrefDahlgren
	PrefHybrid   = sim.PrefHybrid
	PrefCustom   = sim.PrefCustom
)

// PrefetcherKinds lists the prefetchers selectable by name (PrefCustom is
// excluded: it needs a Config.Custom instance).
func PrefetcherKinds() []PrefetcherKind { return sim.PrefetcherKinds() }

// Fingerprint returns a stable content hash of a configuration's semantic
// fields, or ok=false for configurations whose results cannot be keyed
// (custom prefetchers). Two configurations share a fingerprint exactly
// when a completed run of one is a valid result for the other; the
// harness memo and the job service's result store both key on it.
func Fingerprint(cfg Config) (fp string, ok bool) { return sim.Fingerprint(cfg) }

// DecisionEvent is one FDP interval boundary's full feedback decision:
// the raw and decayed counters, the classified metrics, the Table 2 case
// taken, the DCC transition and the resulting prefetcher configuration.
type DecisionEvent = sim.DecisionEvent

// Tracer receives a DecisionEvent at every sampling-interval boundary;
// see Config.Tracer and the internal/obs sinks behind the fdpsim CLI's
// -trace-out flag.
type Tracer = sim.Tracer

// TracerFunc adapts an ordinary function to a Tracer.
type TracerFunc = sim.TracerFunc

// CancelError carries the stop-point metadata of a cancelled run. It
// matches ErrCancelled and the context cause via errors.Is.
type CancelError = sim.CancelError

// Typed sentinels for errors.Is branching (CLI exit codes, retry logic).
var (
	// ErrUnknownWorkload reports a workload name that is not registered.
	ErrUnknownWorkload = sim.ErrUnknownWorkload
	// ErrInvalidConfig reports a configuration Validate rejected.
	ErrInvalidConfig = sim.ErrInvalidConfig
	// ErrCancelled reports a run stopped by context cancellation or
	// deadline; such errors also match context.Canceled or
	// context.DeadlineExceeded, and travel with a partial Result.
	ErrCancelled = sim.ErrCancelled
)

// Default returns the paper's Table 3 baseline with no prefetcher.
func Default() Config { return sim.Default() }

// Conventional returns the baseline plus a conventional prefetcher pinned
// at a Table 1 aggressiveness level (1 = very conservative .. 5 = very
// aggressive).
func Conventional(kind PrefetcherKind, level int) Config { return sim.Conventional(kind, level) }

// WithFDP returns the baseline plus a prefetcher under full FDP control
// (Dynamic Aggressiveness and Dynamic Insertion).
func WithFDP(kind PrefetcherKind) Config { return sim.WithFDP(kind) }

// MultiConfig describes a chip-multiprocessor run: several cores with
// private hierarchies sharing one memory bus. See sim.MultiConfig.
type MultiConfig = sim.MultiConfig

// MultiResult aggregates a multi-core run. See sim.MultiResult.
type MultiResult = sim.MultiResult

// CoreResult is one core's outcome within a multi-core run.
type CoreResult = sim.CoreResult

// The run entry points below take a context, one per mode: plain (one
// core, named workload), Multi (cores sharing a bus), SMT (threads sharing
// a hierarchy), Source (caller-provided micro-op stream) and Spec
// (declarative WorkloadSpec). All of them drive the same simulation loop;
// pass context.Background() for a run that cannot be cancelled.

// RunContext executes one simulation under a context: cancellation and
// deadlines are observed at every FDP sampling-interval boundary, the
// core drains to a retire boundary, and the partial Result is returned
// together with a *CancelError wrapping ErrCancelled and the context
// cause.
func RunContext(ctx context.Context, cfg Config) (Result, error) { return sim.RunContext(ctx, cfg) }

// RunMultiContext executes a multi-core simulation on a shared memory
// bus under a context; DecisionEvent.Core identifies each tracing core.
func RunMultiContext(ctx context.Context, mc MultiConfig) (MultiResult, error) {
	return sim.RunMultiContext(ctx, mc)
}

// SMTConfig describes hardware threads sharing one cache hierarchy,
// prefetcher and FDP engine (the paper's Section 4.3 shared-L2 setting).
type SMTConfig = sim.SMTConfig

// SMTResult aggregates an SMT run.
type SMTResult = sim.SMTResult

// RunSMTContext executes threads over one shared hierarchy under a
// context.
func RunSMTContext(ctx context.Context, cfg SMTConfig) (SMTResult, error) {
	return sim.RunSMTContext(ctx, cfg)
}

// RunSourceContext executes one simulation over a caller-provided
// micro-op source under a context, enabling custom workloads and trace
// replay, with RunContext's cancellation, deadline and
// progress-streaming semantics.
func RunSourceContext(ctx context.Context, cfg Config, src cpu.Source) (Result, error) {
	return sim.RunSourceContext(ctx, cfg, src)
}

// WorkloadSpec is a declarative, seeded, fully reproducible workload: a
// sequence of phases, each a weighted mixture of heterogeneous clients
// (stride, pointer-chase, random and hot-set patterns with bursts and
// skewed rates) composed onto one or more multicore/SMT lanes. Construct
// it in Go or load it from JSON/YAML with LoadSpec/ParseSpec; the same
// (spec, seed) always generates the identical micro-op stream. See
// docs/WORKLOADS.md for the schema reference.
type WorkloadSpec = spec.Spec

// Component types for constructing WorkloadSpecs in Go.
type (
	SpecPhase   = spec.Phase
	SpecClient  = spec.Client
	SpecPattern = spec.Pattern
	SpecStride  = spec.Stride
)

// Pattern kinds for SpecPattern.Kind.
const (
	SpecKindStride = spec.KindStride
	SpecKindChase  = spec.KindChase
	SpecKindRandom = spec.KindRandom
	SpecKindHotset = spec.KindHotset
)

// ErrInvalidSpec is the sentinel wrapped by every WorkloadSpec validation
// failure; callers branch with errors.Is (CLIs map it to exit code 2).
var ErrInvalidSpec = spec.ErrInvalid

// LoadSpec reads, parses and validates a WorkloadSpec file (JSON or the
// YAML subset documented in docs/WORKLOADS.md).
func LoadSpec(path string) (*WorkloadSpec, error) { return spec.Load(path) }

// ParseSpec parses and validates a WorkloadSpec from JSON or YAML bytes.
func ParseSpec(data []byte) (*WorkloadSpec, error) { return spec.Parse(data) }

// RunSpec executes a single-lane WorkloadSpec on one core under a
// context, with RunContext's cancellation, deadline and
// progress-streaming semantics; cfg.Workload is overwritten with the
// spec's name. Multi-lane specs run through RunSpecMulti or RunSpecSMT.
func RunSpec(ctx context.Context, cfg Config, sp *WorkloadSpec) (Result, error) {
	return sim.RunSpecContext(ctx, cfg, sp)
}

// RunSpecMulti runs each lane of a WorkloadSpec on its own core — all
// cores configured from tmpl — contending for one shared memory bus.
func RunSpecMulti(ctx context.Context, tmpl Config, sp *WorkloadSpec) (MultiResult, error) {
	return sim.RunSpecMultiContext(ctx, tmpl, sp)
}

// RunSpecSMT runs each lane of a WorkloadSpec as one hardware thread
// over a shared hierarchy configured from base.
func RunSpecSMT(ctx context.Context, base Config, sp *WorkloadSpec) (SMTResult, error) {
	return sim.RunSpecSMTContext(ctx, base, sp)
}

// SpecFingerprint is Fingerprint for spec-driven runs: a stable content
// hash over the configuration's semantic fields plus the spec's
// canonical form. Specs that differ only in spelled-out defaults hash
// identically, and a spec fingerprint never aliases a named-workload
// one.
func SpecFingerprint(cfg Config, sp *WorkloadSpec) (fp string, ok bool) {
	return sim.FingerprintSpec(cfg, sp)
}

// WorkloadInfo describes one registered workload: the name Config.Workload
// keys on, the registry tags, and a one-line description.
type WorkloadInfo = workload.Info

// Workload registry tags for WorkloadList filtering.
const (
	// WorkloadTagBuiltin marks the hand-coded kernel generators.
	WorkloadTagBuiltin = workload.TagBuiltin
	// WorkloadTagMemIntensive marks the paper's 17-benchmark set.
	WorkloadTagMemIntensive = workload.TagMemIntensive
	// WorkloadTagLowPotential marks the 9 low-potential benchmarks.
	WorkloadTagLowPotential = workload.TagLowPotential
)

// WorkloadList returns the workloads carrying every one of the given
// tags — all workloads when called with none — sorted by name. This is
// the registry's one listing entry point.
func WorkloadList(tags ...string) []WorkloadInfo { return workload.List(tags...) }

// ControllerInfo describes one registered feedback controller for
// listings. The registry behind ControllerList holds the paper's Table 2
// policy ("fdp", the default), static baselines and learned competitors;
// a run selects one by name with Config.Controller (a "tree" controller
// also takes Config.ControllerModel). See docs/CONTROLLERS.md.
type ControllerInfo = control.Info

// ControllerList returns every registered feedback controller in
// registry order, with tags ("paper", "static", "learned") and one-line
// descriptions.
func ControllerList() []ControllerInfo { return control.List() }
