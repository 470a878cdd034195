// Package store is the content-addressed on-disk result store: completed
// simulation Results keyed by their configuration fingerprint
// (sim.Fingerprint). Identical submissions — across processes and across
// restarts — are served from disk instead of re-simulating.
//
// Layout: <dir>/<fp[:2]>/<fp>.json, one entry per fingerprint. Entries are
// written atomically (temp file + rename in the same directory), so a
// concurrent reader sees either the old entry, the new entry, or a miss —
// never a torn write. Every entry embeds a checksum of its payload;
// truncated, garbled or version-skewed entries are discarded on read (and
// unlinked) rather than returned or treated as fatal, so a crash mid-write
// or a corrupted disk costs a re-simulation, not an outage.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fdpsim/internal/sim"
)

// entryVersion guards the on-disk schema. A reader that finds a different
// version discards the entry (forward and backward: both re-simulate).
const entryVersion = 1

// entry is the on-disk envelope around one Result.
type entry struct {
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"` // sha256 hex of Result's raw JSON
	Result   json.RawMessage `json:"result"`
}

// Store is a content-addressed result store rooted at one directory. The
// zero value is not usable; call Open. A Store is safe for concurrent use
// by multiple goroutines and — thanks to atomic renames — by multiple
// processes sharing the directory.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validFP reports whether fp is safe to use as a file name: non-empty
// lowercase hex, as produced by sim.Fingerprint. Anything else (path
// separators, "..", uppercase) is rejected so a hostile key cannot escape
// the store directory.
func validFP(fp string) bool {
	if len(fp) < 8 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp[:2], fp+".json")
}

// Get returns the stored Result for a fingerprint. A missing, truncated,
// garbled, checksum-mismatched or version-skewed entry is a miss; corrupt
// entries are additionally unlinked so they are not re-parsed on every
// lookup.
func (s *Store) Get(fp string) (sim.Result, bool) {
	if !validFP(fp) {
		return sim.Result{}, false
	}
	raw, err := os.ReadFile(s.path(fp))
	if err != nil {
		return sim.Result{}, false
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		s.discard(fp)
		return sim.Result{}, false
	}
	if e.Version != entryVersion {
		return sim.Result{}, false // schema skew: stale, not corrupt — leave it
	}
	sum := sha256.Sum256(e.Result)
	if hex.EncodeToString(sum[:]) != e.Checksum {
		s.discard(fp)
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(e.Result, &res); err != nil {
		s.discard(fp)
		return sim.Result{}, false
	}
	return res, true
}

// discard removes a corrupt entry; best-effort (a racing Put may have
// already replaced it, and losing the race is fine).
func (s *Store) discard(fp string) { os.Remove(s.path(fp)) }

// Put stores a Result under a fingerprint, atomically replacing any
// previous entry. Partial results are refused (errPartial).
func (s *Store) Put(fp string, res sim.Result) error {
	if !validFP(fp) {
		return fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	if res.Partial {
		return errPartial
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(entry{
		Version:  entryVersion,
		Checksum: hex.EncodeToString(sum[:]),
		Result:   payload,
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return writeAtomic(s.path(fp), fp, raw)
}

// writeAtomic lands raw at dst via write-to-temp + rename in the same
// directory, so concurrent readers (and other processes) never observe a
// half-written entry.
func writeAtomic(dst, fp string, raw []byte) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+fp+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len walks the store and counts valid-looking entries (by name, without
// parsing). Intended for metrics and tests, not hot paths.
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}
