package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fdpsim/internal/core"
	"fdpsim/internal/cpu"
	"fdpsim/internal/mem"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

// The run entry points validate, build a topology for the one run loop
// (loop.go) and shape its nodes into a result. Cancellation and deadlines
// are observed at every FDP sampling-interval boundary; a cancelled run
// drains to a retire boundary and returns its partial result together
// with a *CancelError that wraps both ErrCancelled and the context cause.

// Result is one simulation's output: raw counters plus the derived metrics
// the paper reports.
type Result struct {
	Workload   string
	Prefetcher string
	Level      int // static level, or 0 for dynamic

	Counters stats.Counters
	DRAM     mem.Stats

	IPC       float64
	BPKI      float64
	Accuracy  float64 // whole-run used/sent, as in Figure 2
	Lateness  float64 // whole-run late/used, as in Figure 3
	Pollution float64 // whole-run pollution estimate

	// LevelDist and InsertDist reproduce Figures 6 and 8 for FDP runs.
	LevelDist  *stats.Distribution
	InsertDist *stats.Distribution
	Intervals  uint64

	// History holds per-interval FDP records when Config.KeepFDPHistory
	// is set: the decision trace behind the distributions.
	History []core.IntervalRecord

	FinalLevel int

	// Partial marks a result whose run was cancelled before the retire
	// target; all metrics are valid up to the stop point.
	Partial bool
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration

	// Attribution holds the cycle-accounting and bandwidth-attribution
	// block when Config.Attribution is set; nil (and omitted from JSON)
	// otherwise, keeping the Result shape of non-attribution runs — and
	// their golden fingerprints — unchanged.
	Attribution *stats.Attribution `json:",omitempty"`

	// Controller echoes Config.Controller: the feedback policy that drove
	// the run ("" = the built-in paper policy, identical to "fdp").
	// Omitted from JSON when empty, keeping default-run Results — and
	// their golden fingerprints — unchanged.
	Controller string `json:",omitempty"`
}

// MultiConfig describes a chip multiprocessor run: several cores, each
// with a private L1/L2, prefetcher and FDP engine, contending for one
// shared memory bus — the setting the paper's introduction argues makes
// bandwidth-efficient prefetching "more desirable and valuable in future
// processors". The shared DRAM takes its parameters from Cores[0].
type MultiConfig struct {
	Cores []Config
	// Sources optionally provides one micro-op source per core instead of
	// instantiating Cores[i].Workload by name. When set, its length must
	// equal len(Cores) and the sources are attached as-is — address-space
	// disjointness is the provider's concern (WorkloadSpec lanes give every
	// client a private window; see RunSpecMultiContext).
	Sources []cpu.Source
}

// CoreResult is one core's outcome within a multi-core run. Statistics
// are snapshotted the moment the core reaches its retire target, so later
// contention from still-running cores does not dilute them.
type CoreResult struct {
	Result
	// FinishCycle is the cycle at which the core hit its retire target
	// (or, for a Partial core, the cycle the run was cancelled).
	FinishCycle uint64
}

// MultiResult aggregates a multi-core run.
type MultiResult struct {
	Cores []CoreResult
	// Cycles is the cycle at which the last core finished.
	Cycles uint64
	// TotalBusAccesses counts all bus transactions over the full run.
	TotalBusAccesses uint64
	// Partial marks a cancelled run; cores that had not reached their
	// retire target carry Partial results snapshotted at the stop cycle.
	Partial bool
}

// AggregateIPC returns the sum of per-core IPCs (system throughput).
func (m *MultiResult) AggregateIPC() float64 {
	var s float64
	for i := range m.Cores {
		s += m.Cores[i].IPC
	}
	return s
}

// SMTConfig describes threads sharing one cache hierarchy — the "many
// threads sharing the same L2" setting of the paper's Section 4.3, which
// recommends reducing the pollution thresholds under such contention. All
// threads share the L2, MSHRs, prefetcher and one FDP engine (whose
// feedback then reflects the combined access stream); each thread has its
// own architectural core.
type SMTConfig struct {
	// Base carries the shared hierarchy, prefetcher and FDP parameters;
	// its Workload field is ignored.
	Base Config
	// Workloads names one workload per hardware thread.
	Workloads []string
	// Sources optionally provides one micro-op source per thread instead
	// of instantiating Workloads[i] by name; Workloads then only labels
	// the threads. When set, its length must equal len(Workloads) and the
	// sources are attached as-is — address-space disjointness is the
	// provider's concern (see RunSpecSMTContext).
	Sources []cpu.Source
}

// ThreadResult is one thread's outcome in an SMT run.
type ThreadResult struct {
	Workload string
	Retired  uint64
	// FinishCycle is when the thread hit the retire target; IPC is
	// computed against it.
	FinishCycle uint64
	IPC         float64
}

// SMTResult aggregates an SMT run. The cache-hierarchy counters are
// shared, so bandwidth and prefetch metrics are reported once.
type SMTResult struct {
	Threads  []ThreadResult
	Counters stats.Counters
	Cycles   uint64
	// BPKI is shared bus accesses per 1000 instructions summed over all
	// threads.
	BPKI       float64
	Accuracy   float64
	Pollution  float64
	FinalLevel int
	// Partial marks a cancelled run; threads that had not reached the
	// retire target carry an IPC measured at the stop cycle.
	Partial bool
}

// AggregateIPC returns the sum of per-thread IPCs.
func (r *SMTResult) AggregateIPC() float64 {
	var s float64
	for i := range r.Threads {
		s += r.Threads[i].IPC
	}
	return s
}

// RunContext executes one simulation of the named workload under a
// context.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	src, err := workload.New(cfg.Workload, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	return RunSourceContext(ctx, cfg, src)
}

// RunSourceContext executes one simulation over a caller-provided
// micro-op source (trace replay, custom workloads) under a context.
func RunSourceContext(ctx context.Context, cfg Config, src cpu.Source) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	l := newLoop(ctx, cfg)
	n := &l.nodes[0]
	l.add(n, src)
	err := l.run()
	if err != nil && !errors.Is(err, ErrCancelled) {
		return Result{}, err
	}
	res := n.finish()
	res.DRAM = l.dram.Stats()
	return res, err
}

// RunMultiContext executes a multi-core simulation. Every core runs until
// it has retired its MaxInsts; cores that finish early keep executing (so
// the bus contention seen by laggards stays realistic) but their
// statistics are frozen at the finish line. Each core's Config.Tracer
// streams that core's interval events (DecisionEvent.Core identifies the
// emitter).
func RunMultiContext(ctx context.Context, mc MultiConfig) (MultiResult, error) {
	if len(mc.Cores) == 0 {
		return MultiResult{}, fmt.Errorf("%w: multi-core run needs at least one core", ErrInvalidConfig)
	}
	if mc.Sources != nil && len(mc.Sources) != len(mc.Cores) {
		return MultiResult{}, fmt.Errorf("%w: %d sources for %d cores", ErrInvalidConfig, len(mc.Sources), len(mc.Cores))
	}
	for i := range mc.Cores {
		if err := mc.Cores[i].Validate(); err != nil {
			return MultiResult{}, fmt.Errorf("core %d: %w", i, err)
		}
	}
	l := newLoop(ctx, mc.Cores...)
	for i := range l.nodes {
		src, err := laneSource(mc.Sources, mc.Cores[i].Workload, mc.Cores[i].Seed, i)
		if err != nil {
			return MultiResult{}, err
		}
		l.add(&l.nodes[i], src)
	}
	err := l.run()
	if err != nil && !errors.Is(err, ErrCancelled) {
		return MultiResult{}, err
	}
	res := MultiResult{Cycles: l.cycle, Partial: err != nil}
	for i := range l.nodes {
		n := &l.nodes[i]
		cr := CoreResult{Result: n.finish(), FinishCycle: n.lanes[0].finish}
		// Pinned result-shape gap (DESIGN.md, "Run loop"): core results
		// carry no DRAM block and no StallFetch count. Attribution's
		// bus/queue/row telemetry reflects the shared DRAM, so every core
		// reports the same chip-wide memory pressure.
		cr.Counters.StallFetch = 0
		res.Cores = append(res.Cores, cr)
		res.TotalBusAccesses += n.ctr.BusAccesses()
	}
	return res, err
}

// RunSMTContext executes threads over one shared hierarchy until every
// thread has retired Base.MaxInsts instructions. Threads that finish keep
// running (preserving contention); their IPC is fixed at the finish line.
// Base.WarmupInsts is not supported in this mode. Base.Tracer streams
// the shared FDP engine's interval events, whose feedback reflects the
// combined access stream of all threads.
func RunSMTContext(ctx context.Context, cfg SMTConfig) (SMTResult, error) {
	if len(cfg.Workloads) == 0 {
		return SMTResult{}, fmt.Errorf("%w: SMT run needs at least one thread", ErrInvalidConfig)
	}
	if cfg.Sources != nil && len(cfg.Sources) != len(cfg.Workloads) {
		return SMTResult{}, fmt.Errorf("%w: %d sources for %d threads", ErrInvalidConfig, len(cfg.Sources), len(cfg.Workloads))
	}
	base := cfg.Base
	base.Workload = cfg.Workloads[0] // satisfy validation; sources are per-thread
	if err := base.Validate(); err != nil {
		return SMTResult{}, err
	}
	if base.WarmupInsts != 0 {
		return SMTResult{}, fmt.Errorf("%w: WarmupInsts is not supported in SMT mode", ErrInvalidConfig)
	}
	l := newLoop(ctx, base)
	n := &l.nodes[0]
	for i, w := range cfg.Workloads {
		src, err := laneSource(cfg.Sources, w, base.Seed, i)
		if err != nil {
			return SMTResult{}, err
		}
		l.add(n, src)
	}
	err := l.run()
	if err != nil && !errors.Is(err, ErrCancelled) {
		return SMTResult{}, err
	}
	// Pinned result-shape gaps (DESIGN.md, "Run loop"): the shared
	// counters carry no per-kind retire counts, StallFetch or interval
	// count, and Retired includes retirement past each thread's finish.
	ctr := n.snap
	ctr.RetiredLoads, ctr.RetiredStores, ctr.StallFetch, ctr.Intervals = 0, 0, 0, 0
	res := SMTResult{
		Counters:   ctr,
		Cycles:     l.cycle,
		BPKI:       ctr.BPKI(),
		Accuracy:   ctr.Accuracy(),
		Pollution:  ctr.Pollution(),
		FinalLevel: n.finalLevel(),
		Partial:    err != nil,
	}
	for i, ln := range n.lanes {
		res.Threads = append(res.Threads, ThreadResult{
			Workload:    cfg.Workloads[i],
			Retired:     ln.retired,
			FinishCycle: ln.finish,
			IPC:         float64(ln.retired) / float64(ln.finish),
		})
	}
	return res, err
}
