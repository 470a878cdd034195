// Package store is the content-addressed on-disk result store: completed
// simulation Results keyed by their configuration fingerprint
// (sim.Fingerprint). Identical submissions — across processes and across
// restarts — are served from disk instead of re-simulating.
//
// Layout: a fingerprint's files share the bucket <dir>/<fp[:2]>/. The
// Result is <fp>.json; beside it sits one optional sidecar, the interval
// stream (<fp>.series.bin), from which the decision trace and the metric
// catalog are rendered. Both have one format: a header line
// {"version":V,"checksum":"<sha256 hex of the payload>"}, then the payload
// verbatim. Files are written atomically (temp file + rename in the same
// directory), so a concurrent reader sees the old file, the new file or a
// miss — never a torn write. A file that does not verify is a miss and is
// unlinked, so a crash mid-write or a corrupted disk costs a
// re-simulation, not an outage; a header naming another version is a miss
// that leaves the file to the binary that wrote it. Claims (claim.go) and
// the provenance ledger (ledger.go) keep formats of their own.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fdpsim/internal/series"
	"fdpsim/internal/sim"
)

// entryVersion guards the claim and ledger schemas. A reader that finds a
// different version skips the entry (forward and backward).
const entryVersion = 1

// kind is one of the files kept per fingerprint: its name's suffix and
// the version of its payload format, which its header names.
type kind struct {
	ext     string
	version int
}

var (
	// resultFile holds the Result's JSON. Version 1 wrapped it in a JSON
	// envelope instead of the header line.
	resultFile = kind{".json", 2}
	// seriesFile holds an internal/series document, versioned by its
	// codec: a document this binary cannot decode is a version miss.
	seriesFile = kind{".series.bin", series.Version}
)

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

// path names fp's file with the given suffix in its bucket.
func (s *Store) path(fp, ext string) string {
	return filepath.Join(s.dir, fp[:2], fp+ext)
}

// Get returns the stored Result for a fingerprint. A file that get
// rejects is a miss, and so is a payload that does not unmarshal, which
// is unlinked like any other corrupt file.
func (s *Store) Get(fp string) (sim.Result, bool) {
	payload, ok := s.get(fp, resultFile)
	if !ok {
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		os.Remove(s.path(fp, resultFile.ext))
		return sim.Result{}, false
	}
	return res, true
}

// Put stores a Result under a fingerprint, atomically replacing any
// previous entry. Partial results are refused (errPartial).
func (s *Store) Put(fp string, res sim.Result) error {
	if res.Partial {
		return errPartial
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.put(fp, resultFile, payload)
}

// GetSeries returns the stored interval-series document for a
// fingerprint; a job submitted without a trace or series stored none.
func (s *Store) GetSeries(fp string) ([]byte, bool) { return s.get(fp, seriesFile) }

// PutSeries stores an encoded interval-series document under a
// fingerprint, atomically replacing any previous one. The document must
// decode, so the store never serves bytes its readers cannot use.
func (s *Store) PutSeries(fp string, doc []byte) error {
	if _, err := series.Decode(doc); err != nil {
		return fmt.Errorf("store: refusing to persist series: %w", err)
	}
	return s.put(fp, seriesFile, doc)
}

// get reads fp's file of kind k and returns its payload once the header
// verifies it. A missing file is a miss. A header naming another version
// is a miss that leaves the file for the binary that wrote it. A file
// without a header line, with an unreadable header or with a checksum
// mismatch is a miss, and is unlinked so it is not re-read on every
// lookup (a racing put may already have replaced it; losing that race is
// fine). An empty payload is a hit.
func (s *Store) get(fp string, k kind) ([]byte, bool) {
	if !validFP(fp) {
		return nil, false
	}
	path := s.path(fp, k.ext)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	line, payload, found := bytes.Cut(raw, []byte{'\n'})
	var h struct {
		Version  int    `json:"version"`
		Checksum string `json:"checksum"`
	}
	readable := json.Unmarshal(line, &h) == nil && h.Version > 0
	if readable && h.Version != k.version {
		return nil, false // another binary's format: stale, not corrupt
	}
	sum := sha256.Sum256(payload)
	if !readable || !found || h.Checksum != hex.EncodeToString(sum[:]) {
		os.Remove(path)
		return nil, false
	}
	return payload, true
}

// put stores payload as fp's file of kind k: the header line, then the
// payload, written as two writes to a temp file renamed into place.
func (s *Store) put(fp string, k kind, payload []byte) error {
	if !validFP(fp) {
		return fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Appendf(nil, "{\"version\":%d,\"checksum\":\"%x\"}\n", k.version, sum)
	return writeAtomic(s.path(fp, k.ext), fp, header, payload)
}

// writeAtomic lands parts, in order, at dst via write-to-temp + rename in
// the same directory, so concurrent readers (and other processes) never
// observe a half-written file.
func writeAtomic(dst, fp string, parts ...[]byte) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+fp+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range parts {
		if _, err = tmp.Write(p); err != nil {
			break
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len walks the store and counts valid-looking Result files (by name,
// without parsing); the sidecar's suffix does not end in ".json". Intended
// for metrics and tests, not hot paths.
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == resultFile.ext {
			n++
		}
		return nil
	})
	return n
}
