package sim

import (
	"context"
	"fmt"

	"fdpsim/internal/workload"
	"fdpsim/internal/workload/spec"
)

// Job is one single-core run as the job service, the sweep expander and
// the experiment harness key it: a configuration and, when Spec is set,
// the declarative WorkloadSpec it runs in place of the registered
// workload Cfg.Workload names. Its methods are the one place that
// chooses between the two.
type Job struct {
	Cfg  Config
	Spec *spec.Spec
}

// Job size caps. Queued work is untrusted, so Job.Validate bounds every
// field that sizes an allocation or a cycle's work at 64 times the
// largest Table 3 default of its kind: cache blocks and pollution-filter
// bits at 64× the 16384-block L2, entry counts (MSHRs, queue capacities,
// ROB, stream entries) at 64× the 128-entry MSHR file, queues and ROB,
// per-cycle widths (dispatch, load ports, scan window, prefetch drain) at
// 64× the 16-request scan window, and the block size at 64× its 64 bytes.
// Direct runs (RunContext, the CLIs, the harness) are held only to
// Config.Validate's bounds.
const (
	maxJobBlocks     = 1 << 20
	maxJobEntries    = 1 << 13
	maxJobWidth      = 1 << 10
	maxJobBlockShift = 12
)

// Validate checks a run before it is queued: a named workload must
// resolve now (a run would only discover a typo after the job waited in
// the queue), a spec must validate and fit on the one core a job runs
// on, the configuration must validate and fit the job size caps, and the
// run must be fingerprintable so its result is cacheable and the
// submission deduplicatable.
func (j Job) Validate() error {
	if j.Spec != nil {
		if err := j.Spec.Validate(); err != nil {
			return err
		}
		if lanes := j.Spec.Lanes(); lanes > 1 {
			return fmt.Errorf("%w: spec %s targets %d lanes; jobs run on one core", ErrInvalidConfig, j.Spec.Name, lanes)
		}
	}
	c := &j.Cfg
	if err := c.Validate(); err != nil {
		return err
	}
	if j.Spec == nil && !workload.Exists(c.Workload) {
		return fmt.Errorf("%w %q (have %v)", ErrUnknownWorkload, c.Workload, workload.Names())
	}
	if c.Prefetcher == PrefCustom {
		return fmt.Errorf("%w: custom prefetchers cannot run as jobs (no stable fingerprint)", ErrInvalidConfig)
	}
	for _, f := range [...]struct {
		name   string
		v, max int
	}{
		{"L1Blocks", c.L1Blocks, maxJobBlocks},
		{"L1IBlocks", c.L1IBlocks, maxJobBlocks},
		{"L2Blocks", c.L2Blocks, maxJobBlocks},
		{"PrefCacheBlocks", c.PrefCacheBlocks, maxJobBlocks},
		{"FDP.FilterBits", c.FDP.FilterBits, maxJobBlocks},
		{"MSHRs", c.MSHRs, maxJobEntries},
		{"PrefQueueCap", c.PrefQueueCap, maxJobEntries},
		{"DRAM.QueueCap", c.DRAM.QueueCap, maxJobEntries},
		{"CPU.ROB", c.CPU.ROB, maxJobEntries},
		{"StreamEntries", c.StreamEntries, maxJobEntries},
		{"CPU.Width", c.CPU.Width, maxJobWidth},
		{"CPU.LoadPorts", c.CPU.LoadPorts, maxJobWidth},
		{"DRAM.ScanWindow", c.DRAM.ScanWindow, maxJobWidth},
		{"PrefDrainPerTick", c.PrefDrainPerTick, maxJobWidth},
		{"BlockShift", int(c.BlockShift), maxJobBlockShift},
	} {
		if f.v > f.max {
			return fmt.Errorf("%w: %s %d exceeds the job limit of %d", ErrInvalidConfig, f.name, f.v, f.max)
		}
	}
	return nil
}

// Fingerprint is the run's cache key: Fingerprint(Cfg) for a named
// workload, FingerprintSpec(Cfg, Spec) for a spec. ok is false when the
// run cannot be fingerprinted (see those two).
func (j Job) Fingerprint() (fp string, ok bool) {
	if j.Spec != nil {
		return FingerprintSpec(j.Cfg, j.Spec)
	}
	return Fingerprint(j.Cfg)
}

// Workload is the run's label, the name its Result reports: the spec's
// name for a spec run, Cfg.Workload otherwise.
func (j Job) Workload() string {
	if j.Spec != nil {
		return j.Spec.Name
	}
	return j.Cfg.Workload
}

// Run executes the run on one core with RunContext's cancellation,
// deadline and tracing semantics: RunContext for a named workload,
// RunSpecContext for a spec.
func (j Job) Run(ctx context.Context) (Result, error) {
	if j.Spec != nil {
		return RunSpecContext(ctx, j.Cfg, j.Spec)
	}
	return RunContext(ctx, j.Cfg)
}
