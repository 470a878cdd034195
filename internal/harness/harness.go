// Package harness defines and runs the experiments that regenerate every
// table and figure of the paper's evaluation (Section 5). Each experiment
// builds a set of simulator configurations, fans them out over a worker
// pool, and renders the paper's rows/series as text tables. DESIGN.md
// carries the experiment index; EXPERIMENTS.md records paper-vs-measured.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// Params are the knobs shared by all experiments.
type Params struct {
	// Insts is the retire target per simulation. The paper simulates 250M
	// instructions per benchmark; the default here is sized for minutes,
	// not days, and EXPERIMENTS.md documents the scaling.
	Insts uint64
	// Warmup discards statistics from the first Warmup instructions of
	// every run (cache and predictor state stay warm), mirroring the
	// paper's fast-forward methodology.
	Warmup uint64
	// TInterval overrides the FDP sampling interval (the paper's 8192
	// useful evictions assumes 250M-instruction runs; shorter runs sample
	// proportionally faster). Zero keeps the configuration's value.
	TInterval uint64
	Seed      uint64
	Workers   int
	// Progress, when non-nil, receives live events from RunAll.
	Progress *Progress
	// Memo, when non-nil, caches completed results by sim.Fingerprint.
	// Simulations are deterministic, so experiments sharing cells (e.g.
	// Figures 1, 2 and 3 all simulate the same four configurations) run
	// each configuration once per memo; a memo over an on-disk store also
	// serves them across process restarts. Params is copied by value, so
	// every experiment run with one Params shares its memo. Without a
	// memo every cell simulates.
	Memo *store.Memo
}

// Progress is RunAll's live event sink. Both callbacks are invoked from
// worker goroutines — possibly concurrently — so implementations must be
// safe for concurrent use.
type Progress struct {
	// OnRun fires when one simulation finishes (or fails): done counts
	// completed sims including this one, total the sims in the experiment.
	OnRun func(done, total int, spec RunSpec, res sim.Result, err error)
	// OnInterval streams every simulation's per-FDP-interval record, the
	// run's sim.Tracer stream, after the cell's own Cfg.Tracer.
	// Memo-cached simulations replay none.
	OnInterval func(spec RunSpec, ev sim.DecisionEvent)
}

// DefaultParams returns the standard experiment sizing with a fresh
// in-memory memo.
func DefaultParams() Params {
	return Params{Insts: 1_000_000, Warmup: 250_000, TInterval: 2048, Seed: 1, Workers: runtime.GOMAXPROCS(0),
		Memo: store.NewMemo(nil)}
}

// apply stamps the shared parameters onto a configuration.
func (p Params) apply(cfg sim.Config) sim.Config {
	cfg.MaxInsts = p.Insts
	cfg.WarmupInsts = p.Warmup
	cfg.Seed = p.Seed
	if p.TInterval != 0 {
		cfg.FDP.TInterval = p.TInterval
	}
	return cfg
}

// RunSpec names one simulation within an experiment.
type RunSpec struct {
	Workload string
	Config   string // configuration label, e.g. "Very Aggressive"
	// Job is the cell's run, from a registered workload name or, with Spec
	// set, a declarative WorkloadSpec; the worker memoizes it under its
	// Fingerprint, so spec cells share the memo and on-disk store with
	// named cells without ever colliding with them.
	sim.Job
}

// Key identifies the spec's cell in the result grid.
func (r RunSpec) Key() string { return r.Workload + "\x00" + r.Config }

// Grid holds an experiment's results addressable by (workload, config).
type Grid struct {
	results map[string]sim.Result
	mu      sync.Mutex
}

// Get returns the result for a (workload, config) cell.
func (g *Grid) Get(workload, config string) (sim.Result, bool) {
	r, ok := g.results[workload+"\x00"+config]
	return r, ok
}

// MustGet returns the cell or panics (experiments own their spec lists).
func (g *Grid) MustGet(workload, config string) sim.Result {
	r, ok := g.Get(workload, config)
	if !ok {
		panic(fmt.Sprintf("harness: missing result %s/%s", workload, config))
	}
	return r
}

// RunAll executes every spec across a worker pool (p.Workers wide) and
// collects the grid. The first simulation error cancels the context every
// in-flight run observes and stops new launches; the error returned is
// the first real failure (a run's own cancellation error is reported only
// when the caller's ctx itself was cancelled). Cells read through and
// write back to p.Memo when set. Live progress streams to p.Progress when
// set.
func RunAll(ctx context.Context, specs []RunSpec, p Params) (*Grid, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	g := &Grid{results: make(map[string]sim.Result, len(specs))}
	jobs := make(chan RunSpec)
	var (
		mu       sync.Mutex
		firstErr error
		done     int
	)
	// record keeps the first real failure: a later non-cancellation error
	// replaces an earlier cancellation one, because sibling runs that were
	// cancelled *by* the first failure race with it to report.
	record := func(err error) {
		mu.Lock()
		if firstErr == nil || (errors.Is(firstErr, sim.ErrCancelled) && !errors.Is(err, sim.ErrCancelled)) {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	finished := func(spec RunSpec, res sim.Result, err error) {
		if p.Progress == nil || p.Progress.OnRun == nil {
			return
		}
		mu.Lock()
		done++
		n := done
		mu.Unlock()
		p.Progress.OnRun(n, len(specs), spec, res, err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				fp, memoizable := job.Fingerprint()
				memoizable = memoizable && p.Memo != nil
				if memoizable {
					if res, ok := p.Memo.Get(fp); ok {
						g.mu.Lock()
						g.results[job.Key()] = res
						g.mu.Unlock()
						finished(job, res, nil)
						continue
					}
				}
				run := job.Job
				if p.Progress != nil && p.Progress.OnInterval != nil {
					job := job
					run.Cfg.Tracer = obs.Tee(run.Cfg.Tracer,
						sim.TracerFunc(func(ev sim.DecisionEvent) { p.Progress.OnInterval(job, ev) }))
				}
				res, err := run.Run(ctx)
				if err != nil {
					record(fmt.Errorf("%s/%s: %w", job.Workload, job.Config, err))
					finished(job, res, err)
					continue
				}
				if memoizable {
					// Best-effort write-back: a full disk costs future
					// cache hits, not this experiment.
					_ = p.Memo.Put(fp, res)
				}
				g.mu.Lock()
				g.results[job.Key()] = res
				g.mu.Unlock()
				finished(job, res, nil)
			}
		}()
	}
feed:
	for _, s := range specs {
		select {
		case jobs <- s:
		case <-ctx.Done():
			break feed // first error or caller cancellation: launch nothing further
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return g, firstErr
	}
	if err := ctx.Err(); err != nil {
		return g, fmt.Errorf("%w: %w", sim.ErrCancelled, err)
	}
	return g, nil
}

// Experiment regenerates one (or one group of) paper tables/figures.
type Experiment struct {
	ID    string // e.g. "fig5"
	Title string
	Run   func(ctx context.Context, p Params) ([]Table, error)
}

var experiments []Experiment

func registerExperiment(id, title string, run func(ctx context.Context, p Params) ([]Table, error)) {
	experiments = append(experiments, Experiment{ID: id, Title: title, Run: run})
}

// Experiments lists all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
