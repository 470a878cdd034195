// Package sweep turns one declarative parameter grid into the set of
// simulation jobs that reproduces a paper-scale evaluation: workloads (or
// declarative WorkloadSpecs) × prefetcher configurations × seeds, the
// cross-product semantics the harness uses for its experiment grids
// (cells), expressed as a JSON request a client POSTs to
// fdpserved once instead of thousands of times.
//
// The package is pure grid logic — expansion, validation, aggregation,
// merged-table rendering — with no scheduling or HTTP in it; the service
// layer (internal/service) owns the sweep lifecycle, per-tenant fair
// queueing and the worker fleet, and leans on the fingerprint machinery
// to deduplicate expanded units within and across sweeps.
package sweep

import (
	"errors"
	"fmt"
	"strings"

	"fdpsim/internal/control"
	"fdpsim/internal/sim"
	"fdpsim/internal/workload/spec"
)

// ErrInvalid reports a sweep definition the grid machinery rejects: a bad
// axis value, an empty grid, a duplicate label, a grid beyond MaxJobs.
// The CLI exit-code table maps it — like spec.ErrInvalid — to the usage
// exit code 2, and the HTTP layer to 400.
var ErrInvalid = errors.New("sweep: invalid sweep definition")

// ErrUnknownTenant reports a sweep or job naming a tenant the scheduler's
// roster does not know. It wraps ErrInvalid, so both map to usage errors.
var ErrUnknownTenant = fmt.Errorf("%w: unknown tenant", ErrInvalid)

// MaxJobs bounds one sweep's expanded grid. Sweeps are admitted whole
// (their jobs bypass the per-tenant queued quota so a grid larger than a
// quota is still schedulable), so the expansion itself must be bounded.
const MaxJobs = 4096

// Request is the POST /v1/sweeps body: a parameter grid plus shared
// sizing. The expanded grid is the cross product
//
//	(workloads ∪ specs) × configs × seeds
//
// matching the harness's cells semantics: every workload runs
// under every configuration axis at every seed.
type Request struct {
	// Name labels the sweep in listings and result tables. Optional.
	Name string `json:"name,omitempty"`
	// Tenant attributes the sweep's jobs to a scheduler tenant for fair
	// queueing and quotas. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders this sweep's jobs against the tenant's other work
	// (higher runs sooner; default 0).
	Priority int `json:"priority,omitempty"`

	// Workloads are registered workload names (see fdpsim.WorkloadList).
	Workloads []string `json:"workloads,omitempty"`
	// Specs are declarative WorkloadSpecs (docs/WORKLOADS.md schema)
	// swept exactly like named workloads. Single-lane specs only.
	Specs []*spec.Spec `json:"specs,omitempty"`
	// Configs is the prefetcher-configuration axis. Required.
	Configs []ConfigAxis `json:"configs"`
	// Seeds replicates every cell at each seed. Empty means [1].
	Seeds []uint64 `json:"seeds,omitempty"`

	// Shared sizing, applied to every cell (zero keeps the simulator
	// defaults: 1M instructions, no warmup).
	Insts     uint64 `json:"insts,omitempty"`
	Warmup    uint64 `json:"warmup,omitempty"`
	TInterval uint64 `json:"tinterval,omitempty"`
	// Attribution enables the cycle-accounting layer on every cell.
	Attribution bool `json:"attribution,omitempty"`
	// Series records each cell's interval timeseries (internal/series),
	// queryable per job at GET /v1/jobs/{id}/series and merged across the
	// sweep at GET /v1/sweeps/{id}/series. It does not enter the cell
	// fingerprint: a series-enabled sweep still hits the result cache.
	Series bool `json:"series,omitempty"`
}

// ConfigAxis is one point on the configuration axis, assembling a
// simulator configuration exactly like the fdpsim CLI's flags and the
// single-job API's simple fields.
type ConfigAxis struct {
	// Label names the column in results. Empty derives one from the
	// fields ("stream-L5", "ghb-fdp", "none").
	Label string `json:"label,omitempty"`
	// Prefetcher is the hardware prefetcher kind. Empty means "stream".
	Prefetcher string `json:"prefetcher,omitempty"`
	// Level pins a conventional prefetcher at a Table 1 aggressiveness
	// (1..5; 0 means 5). Must be 0 when FDP is set or Prefetcher is none.
	Level int `json:"level,omitempty"`
	// FDP runs the prefetcher under full feedback control.
	FDP bool `json:"fdp,omitempty"`
	// DynamicInsertion enables dynamic insertion on its own.
	DynamicInsertion bool `json:"dynamic_insertion,omitempty"`
	// Controller selects the feedback decision policy for an FDP axis
	// (see internal/control: "fdp", "static-1".."static-5",
	// "dspatch-dual", "tree"). Empty keeps the paper's Table 2 policy;
	// requires FDP. One sweep listing several controllers as separate
	// axes produces the merged head-to-head table per controller.
	Controller string `json:"controller,omitempty"`
}

// label returns the axis's explicit or derived column label.
func (a ConfigAxis) label() string {
	if a.Label != "" {
		return a.Label
	}
	kind := a.Prefetcher
	if kind == "" {
		kind = string(sim.PrefStream)
	}
	switch {
	case kind == string(sim.PrefNone):
		return "none"
	case a.FDP:
		if a.Controller != "" && a.Controller != "fdp" {
			return kind + "-" + a.Controller
		}
		return kind + "-fdp"
	default:
		level := a.Level
		if level == 0 {
			level = 5
		}
		s := fmt.Sprintf("%s-L%d", kind, level)
		if a.DynamicInsertion {
			s += "+dynins"
		}
		return s
	}
}

// Build assembles the axis's simulator configuration (before the shared
// sizing and the workload are stamped on). It is the one mapping from
// these simple fields to a configuration: POST /v1/jobs and the fdpsim
// CLI's flags build through it too. Inconsistent fields report errors
// matching ErrInvalid.
func (a ConfigAxis) Build() (sim.Config, error) {
	kind := sim.PrefetcherKind(a.Prefetcher)
	if a.Prefetcher == "" {
		kind = sim.PrefStream
	}
	known := false
	for _, k := range sim.PrefetcherKinds() {
		if k == kind {
			known = true
			break
		}
	}
	if !known {
		return sim.Config{}, fmt.Errorf("%w: unknown prefetcher %q in config axis %q", ErrInvalid, a.Prefetcher, a.label())
	}
	if a.Level < 0 || a.Level > 5 {
		return sim.Config{}, fmt.Errorf("%w: level %d out of range 0..5 in config axis %q", ErrInvalid, a.Level, a.label())
	}
	if a.Controller != "" && !a.FDP {
		return sim.Config{}, fmt.Errorf("%w: config axis %q sets a controller without fdp", ErrInvalid, a.label())
	}
	if !control.Known(a.Controller) {
		return sim.Config{}, fmt.Errorf("%w: unknown controller %q in config axis %q (have %v)", ErrInvalid, a.Controller, a.label(), control.Names())
	}
	var cfg sim.Config
	switch {
	case a.FDP:
		if a.Level != 0 {
			return sim.Config{}, fmt.Errorf("%w: config axis %q sets both fdp and a static level", ErrInvalid, a.label())
		}
		cfg = sim.WithFDP(kind)
		cfg.Controller = a.Controller
	case kind == sim.PrefNone:
		if a.Level != 0 {
			return sim.Config{}, fmt.Errorf("%w: config axis %q sets a level without a prefetcher", ErrInvalid, a.label())
		}
		cfg = sim.Default()
	default:
		level := a.Level
		if level == 0 {
			level = 5
		}
		cfg = sim.Conventional(kind, level)
	}
	if a.DynamicInsertion {
		cfg.FDP.DynamicInsertion = true
	}
	return cfg, nil
}

// Unit is one expanded grid cell: a fully assembled simulation the
// service submits as one job. Units with identical fingerprints (e.g. a
// workload listed twice, or overlapping sweeps) are distinct cells that
// share one execution.
type Unit struct {
	// Workload is the cell's row label: the workload or spec name.
	Workload string
	// Config is the cell's column label (the axis label).
	Config string
	// Seed replicates rows; the same (workload, config) at two seeds is
	// two cells.
	Seed uint64

	// Job is the cell's run; its Fingerprint is the deduplication key the
	// job service, the harness memo and the on-disk store share, so sweep
	// cells share their caches.
	sim.Job
}

// Key identifies the cell within its sweep.
func (u Unit) Key() string {
	return fmt.Sprintf("%s\x00%s\x00%d", u.Workload, u.Config, u.Seed)
}

// Expand validates the request and produces the full grid, in a stable
// order (workloads, then specs; configs within workload; seeds within
// config). Every failure wraps ErrInvalid.
func (r *Request) Expand() ([]Unit, error) {
	if len(r.Workloads) == 0 && len(r.Specs) == 0 {
		return nil, fmt.Errorf("%w: empty workload axis (need workloads or specs)", ErrInvalid)
	}
	if len(r.Configs) == 0 {
		return nil, fmt.Errorf("%w: empty config axis", ErrInvalid)
	}
	seeds := r.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}

	rows := len(r.Workloads) + len(r.Specs)
	total := rows * len(r.Configs) * len(seeds)
	if total > MaxJobs {
		return nil, fmt.Errorf("%w: grid expands to %d jobs, above the %d-job bound", ErrInvalid, total, MaxJobs)
	}

	type column struct {
		label string
		cfg   sim.Config
	}
	cols := make([]column, 0, len(r.Configs))
	seen := make(map[string]bool, len(r.Configs))
	for _, a := range r.Configs {
		cfg, err := a.Build()
		if err != nil {
			return nil, err
		}
		label := a.label()
		if seen[label] {
			return nil, fmt.Errorf("%w: duplicate config label %q", ErrInvalid, label)
		}
		seen[label] = true
		cols = append(cols, column{label: label, cfg: cfg})
	}

	for _, sp := range r.Specs {
		if sp == nil {
			return nil, fmt.Errorf("%w: null spec in specs axis", ErrInvalid)
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("%w: spec %q: %w", ErrInvalid, sp.Name, err)
		}
		if lanes := sp.Lanes(); lanes != 1 {
			return nil, fmt.Errorf("%w: spec %q has %d lanes; sweeps run single-lane specs only", ErrInvalid, sp.Name, lanes)
		}
	}

	units := make([]Unit, 0, total)
	addRow := func(kind, name string, sp *spec.Spec) error {
		for _, col := range cols {
			for _, seed := range seeds {
				cfg := col.cfg
				cfg.Workload = name
				cfg.Seed = seed
				if r.Insts != 0 {
					cfg.MaxInsts = r.Insts
				}
				if r.Warmup != 0 {
					cfg.WarmupInsts = r.Warmup
				}
				if r.TInterval != 0 {
					cfg.FDP.TInterval = r.TInterval
				}
				cfg.Attribution = r.Attribution
				run := sim.Job{Cfg: cfg, Spec: sp}
				if err := run.Validate(); err != nil {
					return fmt.Errorf("%w: %s %q: %w", ErrInvalid, kind, name, err)
				}
				units = append(units, Unit{Workload: name, Config: col.label, Seed: seed, Job: run})
			}
		}
		return nil
	}
	for _, w := range r.Workloads {
		if strings.TrimSpace(w) == "" {
			return nil, fmt.Errorf("%w: empty workload name", ErrInvalid)
		}
		if err := addRow("workload", w, nil); err != nil {
			return nil, err
		}
	}
	for _, sp := range r.Specs {
		if err := addRow("spec", sp.Name, sp); err != nil {
			return nil, err
		}
	}
	return units, nil
}
