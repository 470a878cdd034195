package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// storedKind drives one kind of stored file through its exported putter
// and getter.
type storedKind struct {
	name string
	k    kind
	put  func(t testing.TB, s *Store, fp string)
	get  func(s *Store, fp string) bool
}

var (
	storedResult = storedKind{"result", resultFile,
		func(t testing.TB, s *Store, fp string) {
			if err := s.Put(fp, testResult(1.5)); err != nil {
				t.Fatal(err)
			}
		},
		func(s *Store, fp string) bool { _, ok := s.Get(fp); return ok }}
	storedSeries = storedKind{"series", seriesFile,
		func(t testing.TB, s *Store, fp string) {
			if err := s.PutSeries(fp, encodedSeries(t, 16)); err != nil {
				t.Fatal(err)
			}
		},
		func(s *Store, fp string) bool { _, ok := s.GetSeries(fp); return ok }}
	storedKinds = []storedKind{storedResult, storedSeries}
)

// storedFile is a file in the one format: the header line naming version
// and the payload's checksum, then the payload.
func storedFile(version int, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(fmt.Appendf(nil, "{\"version\":%d,\"checksum\":\"%x\"}\n", version, sum), payload...)
}

// writeFile replaces path's contents, creating its bucket.
func writeFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// parentResultFile is a Result as the envelope format (version 1) stored
// it: one JSON object holding the version, the checksum and the Result.
func parentResultFile(t testing.TB) []byte {
	payload, err := json.Marshal(testResult(1.5))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(struct {
		Version  int             `json:"version"`
		Checksum string          `json:"checksum"`
		Result   json.RawMessage `json:"result"`
	}{1, hex.EncodeToString(sum[:]), payload})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkDamage stores a file of kind sk and writes each named case of
// damage (every case when none is named) in its place. A damaged file is
// a miss and is unlinked; a version-skewed one is a miss left on disk;
// either way the store then takes a fresh put and serves it.
func checkDamage(t *testing.T, sk storedKind, names ...string) {
	t.Helper()
	s := tempStore(t)
	key := fp(0)
	path := s.path(key, sk.k.ext)
	sk.put(t, s, key)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(file, '\n')
	payload := file[nl+1:]
	flip := func(i int) []byte {
		out := bytes.Clone(file)
		out[i] ^= 0x10
		return out
	}
	var flips [][]byte
	for i := 0; i < len(file); i += 7 {
		flips = append(flips, flip(i))
	}
	cases := []struct {
		name  string
		files [][]byte // nil: no file at all
		kept  bool
	}{
		{"missing", [][]byte{nil}, false},
		{"cut at 0 bytes", [][]byte{file[:0]}, false},
		{"cut inside the header", [][]byte{file[:nl/2]}, false},
		{"cut inside the payload", [][]byte{file[:nl+1+len(payload)/2]}, false},
		{"one byte short", [][]byte{file[:len(file)-1]}, false},
		{"bit flip in the payload", [][]byte{flip(nl + 1 + len(payload)/2)}, false},
		{"bit flips across the file", flips, false},
		{"garbage file", [][]byte{[]byte("not json at all \x00\xff")}, false},
		{"garbage header", [][]byte{append([]byte("not json at all \x00\xff\n"), payload...)}, false},
		{"header naming no version", [][]byte{storedFile(0, payload)}, false},
		{"skewed version", [][]byte{storedFile(sk.k.version+1, payload)}, true},
	}
	ran := 0
	for _, c := range cases {
		if len(names) > 0 && !slices.Contains(names, c.name) {
			continue
		}
		ran++
		t.Run(sk.name+"/"+c.name, func(t *testing.T) {
			for i, data := range c.files {
				os.Remove(path)
				if data != nil {
					writeFile(t, path, data)
				}
				if sk.get(s, key) {
					t.Fatalf("file %d served as a hit", i)
				}
				_, err := os.Stat(path)
				if c.kept && err != nil {
					t.Fatalf("file %d unlinked; a newer binary may own it: %v", i, err)
				}
				if !c.kept && !os.IsNotExist(err) {
					t.Fatalf("file %d left on disk (err=%v)", i, err)
				}
				sk.put(t, s, key)
				if !sk.get(s, key) {
					t.Fatalf("after file %d the store did not take a fresh put", i)
				}
			}
		})
	}
	if len(names) > 0 && ran != len(names) {
		t.Fatalf("%d of the cases %q are not in the damage table", len(names)-ran, names)
	}
}

// TestStoredFileDamage runs every kind of stored file through the whole
// damage table.
func TestStoredFileDamage(t *testing.T) {
	for _, sk := range storedKinds {
		checkDamage(t, sk)
	}
}

// TestFutureVersionLeftOnDisk: a Result file whose header names a later
// version is that version's to read, whatever its payload, so it is a
// miss that stays on disk. The envelope format's reader parsed the whole
// file as JSON and unlinked this one as corrupt.
func TestFutureVersionLeftOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := fp(0)
	path := filepath.Join(dir, key[:2], key+".json")
	payload := []byte("RESULT v99 \x00\x01 not JSON")
	sum := sha256.Sum256(payload)
	writeFile(t, path, append(fmt.Appendf(nil, "{\"version\":99,\"checksum\":\"%x\"}\n", sum), payload...))
	if got, ok := s.Get(key); ok {
		t.Fatalf("future-version Result served as a hit: %+v", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("future-version Result unlinked: %v", err)
	}
}

// TestParentFormatFiles reads files earlier stores wrote. The envelope
// format's Result is version skew, left on disk; its series document has
// no header line, so it is a miss and is unlinked. A version-1 series
// sidecar, which stored catalog columns instead of events, is version
// skew, left on disk.
func TestParentFormatFiles(t *testing.T) {
	s := tempStore(t)
	key := fp(0)

	resultPath := s.path(key, resultFile.ext)
	writeFile(t, resultPath, parentResultFile(t))
	if _, ok := s.Get(key); ok {
		t.Fatal("envelope-format Result served as a hit")
	}
	if _, err := os.Stat(resultPath); err != nil {
		t.Fatalf("envelope-format Result unlinked: %v", err)
	}

	seriesPath := s.path(key, seriesFile.ext)
	writeFile(t, seriesPath, encodedSeries(t, 4))
	if _, ok := s.GetSeries(key); ok {
		t.Fatal("headerless series document served as a hit")
	}
	if _, err := os.Stat(seriesPath); !os.IsNotExist(err) {
		t.Fatalf("headerless series document left on disk (err=%v)", err)
	}

	writeFile(t, seriesPath, storedFile(1, []byte("FDPSERS1 version-1 catalog columns")))
	if _, ok := s.GetSeries(key); ok {
		t.Fatal("version-1 series sidecar served as a hit")
	}
	if _, err := os.Stat(seriesPath); err != nil {
		t.Fatalf("version-1 series sidecar unlinked: %v", err)
	}
}

// FuzzStoreFile writes arbitrary bytes as each kind's file. No getter may
// panic; a hit is exactly the bytes after the first newline, and they hash
// to the header's checksum; after a miss the file is gone, unless its
// first line is a header naming another version.
func FuzzStoreFile(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for _, sk := range storedKinds {
		sk.put(f, s, fp(0))
		file, err := os.ReadFile(s.path(fp(0), sk.k.ext))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
	}
	f.Add(storedFile(seriesFile.version, []byte{}))
	f.Add(storedFile(99, []byte("not JSON")))
	f.Add(parentResultFile(f))
	f.Add(encodedSeries(f, 4))
	f.Add(storedFile(1, encodedSeries(f, 4)))
	f.Add(bytes.TrimSuffix(storedFile(seriesFile.version, nil), []byte{'\n'}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key := fp(0)
		line, rest, found := bytes.Cut(data, []byte{'\n'})
		var h struct {
			Version  int    `json:"version"`
			Checksum string `json:"checksum"`
		}
		readable := json.Unmarshal(line, &h) == nil && h.Version > 0
		for _, sk := range storedKinds {
			path := s.path(key, sk.k.ext)
			skewed := readable && h.Version != sk.k.version
			present := func(hit bool) {
				t.Helper()
				_, err := os.Stat(path)
				if (hit || skewed) && err != nil {
					t.Fatalf("%s: file unlinked after a hit or a version miss: %v", sk.name, err)
				}
				if !hit && !skewed && !os.IsNotExist(err) {
					t.Fatalf("%s: missed file left on disk (err=%v)", sk.name, err)
				}
			}

			writeFile(t, path, data)
			payload, hit := s.get(key, sk.k)
			if hit {
				sum := sha256.Sum256(payload)
				if !found || !bytes.Equal(payload, rest) || h.Checksum != hex.EncodeToString(sum[:]) {
					t.Fatalf("%s: hit on %q is not the verified payload", sk.name, payload)
				}
			}
			present(hit)

			writeFile(t, path, data)
			exported := sk.get(s, key)
			if exported && !hit {
				t.Fatalf("%s: the exported getter hit a file get rejects", sk.name)
			}
			present(exported)
		}
	})
}
