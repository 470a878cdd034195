package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The provenance ledger is the durable "who ran this and how" record
// beside each result: an append-only JSONL sidecar
// <dir>/<fp[:2]>/<fp>.prov.jsonl with one line per attempt that touched
// the fingerprint — executions, cache hits, fleet adoptions, failures.
// Where the result entry answers "what came out", the ledger answers
// "where did the wall-clock go, on which worker, under which lease" —
// the calibration data the sampled-sim and analytical-twin roadmap items
// need, and the audit trail for exactly-once-results debugging.
//
// Writes are a single O_APPEND write per line. POSIX makes small
// appenders atomic with respect to each other, so several fleet workers
// sharing the directory interleave whole lines, never torn ones. Readers
// skip lines that fail to parse (a torn tail after a crash) instead of
// failing the whole file.

// Provenance outcomes.
const (
	// OutcomeExecuted: this process ran the simulation and stored the result.
	OutcomeExecuted = "executed"
	// OutcomeCacheHit: the result was already in the store at submit time.
	OutcomeCacheHit = "cache_hit"
	// OutcomeAdopted: another fleet worker executed it; this process
	// adopted the stored result after waiting on the claim.
	OutcomeAdopted = "adopted"
	// OutcomeFailed: the run errored; no result was stored.
	OutcomeFailed = "failed"
	// OutcomeCancelled: the run was cancelled or timed out.
	OutcomeCancelled = "cancelled"
)

// Provenance is one ledger line: a single attempt's identity, outcome
// and duration breakdown. Durations are reported in milliseconds and
// satisfy QueueWaitMS + RunMS + StoreMS <= WallMS (within scheduling
// noise the invariant the e2e suite checks).
type Provenance struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	TraceID     string `json:"trace_id,omitempty"`
	JobID       string `json:"job_id,omitempty"`
	SweepID     string `json:"sweep_id,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	// Worker is the executing process's identity (fleet worker name, or
	// "local" for a standalone daemon).
	Worker string `json:"worker,omitempty"`
	// LeaseGen is the claim generation the work ran under: 0 for a fresh
	// acquire, higher after steals, -1 outside fleet mode.
	LeaseGen int  `json:"lease_gen"`
	Stolen   bool `json:"stolen,omitempty"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// GoVersion and Build record the toolchain and module version that
	// produced the result, for reproducibility audits.
	GoVersion string `json:"go_version,omitempty"`
	Build     string `json:"build,omitempty"`

	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished"`
	// Duration breakdown, milliseconds.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	RunMS       float64 `json:"run_ms"`
	StoreMS     float64 `json:"store_ms"`
	WallMS      float64 `json:"wall_ms"`
}

const ledgerSuffix = ".prov.jsonl"

func (s *Store) ledgerPath(fp string) string {
	return s.path(fp)[:len(s.path(fp))-len(".json")] + ledgerSuffix
}

// AppendProvenance appends one line to a fingerprint's ledger. The write
// is a single append, so concurrent workers (goroutines or processes)
// never tear each other's lines. Ledger writes are observability, not
// correctness: callers should log failures, not fail the job.
func (s *Store) AppendProvenance(p Provenance) error {
	if !validFP(p.Fingerprint) {
		return fmt.Errorf("store: invalid fingerprint %q", p.Fingerprint)
	}
	p.Version = entryVersion
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("store: provenance: %w", err)
	}
	path := s.ledgerPath(p.Fingerprint)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: provenance: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: provenance: %w", err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("store: provenance: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: provenance: %w", err)
	}
	return nil
}

// ReadProvenance returns a fingerprint's ledger, oldest line first. A
// missing ledger is an empty history, not an error; unparsable lines (a
// crash-torn tail, a future schema) are skipped.
func (s *Store) ReadProvenance(fp string) ([]Provenance, error) {
	if !validFP(fp) {
		return nil, fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	f, err := os.Open(s.ledgerPath(fp))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: provenance: %w", err)
	}
	defer f.Close()
	var out []Provenance
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p Provenance
		if err := json.Unmarshal(line, &p); err != nil || p.Version != entryVersion {
			continue
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("store: provenance: %w", err)
	}
	return out, nil
}
