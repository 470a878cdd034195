package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"fdpsim/internal/workload/spec"
)

// Spec-driven runs: a declarative WorkloadSpec replaces the registry
// lookup, with the spec's lanes mapping onto cores (multicore) or
// hardware threads (SMT). Generation is a pure function of (spec, seed),
// so spec runs fingerprint and memoize exactly like named workloads —
// FingerprintSpec folds the spec's canonical JSON into the config hash
// without touching Config itself, keeping every existing Fingerprint
// (and the content-addressed stores keyed on them) stable.

// RunSpecContext executes a single-lane WorkloadSpec on one core, with
// RunContext's cancellation, deadline and progress-streaming semantics.
// The config's Workload field is overwritten with the spec's name;
// multi-lane specs must run through RunSpecMultiContext or
// RunSpecSMTContext.
func RunSpecContext(ctx context.Context, cfg Config, sp *spec.Spec) (Result, error) {
	if err := validSpec(sp); err != nil {
		return Result{}, err
	}
	if lanes := sp.Lanes(); lanes > 1 {
		return Result{}, fmt.Errorf("%w: spec %s targets %d lanes; use RunSpecMultiContext or RunSpecSMTContext",
			ErrInvalidConfig, sp.Name, lanes)
	}
	cfg.Workload = sp.Name
	return RunSourceContext(ctx, cfg, sp.Source(0, cfg.Seed))
}

// RunSpecMultiContext runs each spec lane on its own core, all cores
// configured from tmpl (Workload overwritten with the spec's name) and
// contending for one shared memory bus. Spec clients generate into
// disjoint per-client address windows, so no extra relocation is applied.
func RunSpecMultiContext(ctx context.Context, tmpl Config, sp *spec.Spec) (MultiResult, error) {
	if err := validSpec(sp); err != nil {
		return MultiResult{}, err
	}
	tmpl.Workload = sp.Name
	mc := MultiConfig{Sources: sp.Sources(tmpl.Seed)}
	for i := 0; i < sp.Lanes(); i++ {
		mc.Cores = append(mc.Cores, tmpl)
	}
	return RunMultiContext(ctx, mc)
}

// RunSpecSMTContext runs each spec lane as one hardware thread over a
// shared L2, prefetcher and FDP engine configured from base. The usual
// SMT restrictions apply (no WarmupInsts).
func RunSpecSMTContext(ctx context.Context, base Config, sp *spec.Spec) (SMTResult, error) {
	if err := validSpec(sp); err != nil {
		return SMTResult{}, err
	}
	cfg := SMTConfig{Base: base, Sources: sp.Sources(base.Seed)}
	for i := 0; i < sp.Lanes(); i++ {
		cfg.Workloads = append(cfg.Workloads, sp.Name)
	}
	return RunSMTContext(ctx, cfg)
}

// FingerprintSpec is Fingerprint for spec-driven runs: a stable content
// hash over the config's semantic fields plus the spec's canonical JSON.
// Two (config, spec) pairs share a fingerprint exactly when a completed
// spec run of one is a valid result for the other; specs that only differ
// in spelled-out defaults hash identically (see spec.Canonical). Named-
// workload fingerprints are untouched: a spec run can never alias one
// because the "spec" domain separator never appears in Fingerprint's
// input.
func FingerprintSpec(cfg Config, sp *spec.Spec) (fp string, ok bool) {
	if cfg.Prefetcher == PrefCustom || sp == nil {
		return "", false
	}
	canon, err := sp.Canonical()
	if err != nil {
		return "", false
	}
	cfg.Custom = nil
	cfg.Progress = nil
	cfg.Tracer = nil
	cfg.Workload = sp.Name
	sum := sha256.Sum256([]byte(fingerprintVersion + "\x00spec\x00" + string(canon) + "\x00" + fmt.Sprintf("%+v", cfg)))
	return hex.EncodeToString(sum[:]), true
}

// ValidateSpecJob is ValidateJob for spec-driven submissions: the spec
// must validate, fit on the single core a job runs on, and the pair must
// be fingerprintable so the result is cacheable and deduplicatable.
func ValidateSpecJob(cfg Config, sp *spec.Spec) error {
	if err := validSpec(sp); err != nil {
		return err
	}
	if lanes := sp.Lanes(); lanes > 1 {
		return fmt.Errorf("%w: spec %s targets %d lanes; jobs run on one core", ErrInvalidConfig, sp.Name, lanes)
	}
	cfg.Workload = sp.Name
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Prefetcher == PrefCustom {
		return fmt.Errorf("%w: custom prefetchers cannot run as jobs (no stable fingerprint)", ErrInvalidConfig)
	}
	return nil
}

// validSpec rejects a nil or invalid spec.
func validSpec(sp *spec.Spec) error {
	if sp == nil {
		return fmt.Errorf("%w: nil workload spec", ErrInvalidConfig)
	}
	return sp.Validate()
}
