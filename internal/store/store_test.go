package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
)

func testResult(ipc float64) sim.Result {
	return sim.Result{
		Workload:   "seqstream",
		Prefetcher: "stream",
		IPC:        ipc,
		BPKI:       12.5,
		Counters:   stats.Counters{Cycles: 1000, Retired: uint64(1000 * ipc)},
		LevelDist:  stats.NewDistribution("level", "1", "2", "3", "4", "5"),
	}
}

func fp(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testResult(1.5)
	if err := s.Put(fp(0), want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp(0))
	if !ok {
		t.Fatal("Get missed a just-Put entry")
	}
	if got.IPC != want.IPC || got.Workload != want.Workload || got.Counters.Cycles != want.Counters.Cycles {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	if got.LevelDist == nil || got.LevelDist.Label != "level" {
		t.Fatalf("distribution lost in round trip: %+v", got.LevelDist)
	}
	if _, ok := s.Get(fp(1)); ok {
		t.Fatal("Get hit an absent fingerprint")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Put(fp(0), testResult(2.0)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(fp(0)); !ok || got.IPC != 2.0 {
		t.Fatalf("reopened store missed the entry: ok=%v got=%+v", ok, got)
	}
}

// TestCorruptEntriesDiscarded is the satellite requirement: a truncated or
// garbage entry is a miss (and is removed), never a parse failure
// propagated to the caller.
func TestCorruptEntriesDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)

	corrupt := func(name string, mutate func(path string)) {
		t.Helper()
		if err := s.Put(fp(0), testResult(1.0)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fp(0)[:2], fp(0)+".json")
		mutate(path)
		if _, ok := s.Get(fp(0)); ok {
			t.Fatalf("%s: corrupt entry served as a hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt entry not unlinked (err=%v)", name, err)
		}
		// The store must still accept a fresh Put for the same key.
		if err := s.Put(fp(0), testResult(3.0)); err != nil {
			t.Fatalf("%s: Put after corruption: %v", name, err)
		}
		if got, ok := s.Get(fp(0)); !ok || got.IPC != 3.0 {
			t.Fatalf("%s: store did not recover: ok=%v got=%+v", name, ok, got)
		}
		os.Remove(path)
	}

	corrupt("truncated", func(p string) {
		raw, _ := os.ReadFile(p)
		os.WriteFile(p, raw[:len(raw)/2], 0o644)
	})
	corrupt("garbage", func(p string) {
		os.WriteFile(p, []byte("not json at all \x00\xff"), 0o644)
	})
	corrupt("bit-flip", func(p string) {
		raw, _ := os.ReadFile(p)
		// Flip a byte inside the payload (past the envelope prefix) so the
		// JSON still parses but the checksum no longer matches.
		raw[len(raw)/2] ^= 0x20
		os.WriteFile(p, raw, 0o644)
	})
}

func TestVersionSkewIsMissNotDeletion(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Put(fp(0), testResult(1.0)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fp(0)[:2], fp(0)+".json")
	raw, _ := os.ReadFile(path)
	skewed := []byte(`{"version":99,` + string(raw[len(`{"version":1,`):]))
	os.WriteFile(path, skewed, 0o644)
	if _, ok := s.Get(fp(0)); ok {
		t.Fatal("version-skewed entry served as a hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("version skew should not unlink (a newer binary may own it): %v", err)
	}
}

// TestIntervalRecordHistoryIsMiss covers entries written before
// Result.History held DecisionEvents: a History in the old per-interval
// record shape no longer decodes, so the entry is a miss (the run is
// simulated again and stored afresh), never a wrong result.
func TestIntervalRecordHistoryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Put(fp(0), testResult(1.0)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fp(0)[:2], fp(0)+".json")
	raw, _ := os.ReadFile(path)
	var e entry
	var res map[string]json.RawMessage
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(e.Result, &res); err != nil {
		t.Fatal(err)
	}
	res["History"] = json.RawMessage(`[{"Accuracy":0.9,"Lateness":0.5,"Pollution":0.01,` +
		`"Case":{"Case":1,"Accuracy":2,"Late":true,"Polluting":false,"Update":1,"Reason":"to increase timeliness"},` +
		`"Level":4,"Insertion":2,` +
		`"Raw":{"pref_sent":100,"pref_used":90,"pref_late":45,"pollution_misses":0,"demand_misses":100},` +
		`"Decayed":{"pref_sent":100,"pref_used":90,"pref_late":45,"pollution_misses":0,"demand_misses":100},` +
		`"AccClass":2,"Late":true,"Polluting":false,"BusUtilization":0.4,"LevelBefore":3}]`)
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	e.Result = payload
	sum := sha256.Sum256(e.Result)
	e.Checksum = hex.EncodeToString(sum[:])
	old, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(path, old, 0o644)
	if got, ok := s.Get(fp(0)); ok {
		t.Fatalf("entry with an old-shape History served as a hit: %+v", got)
	}
	if err := s.Put(fp(0), testResult(2.0)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(fp(0)); !ok || got.IPC != 2.0 {
		t.Fatalf("store did not take the re-simulated result: ok=%v got=%+v", ok, got)
	}
}

func TestRejectsPartialAndBadKeys(t *testing.T) {
	s, _ := Open(t.TempDir())
	partial := testResult(1.0)
	partial.Partial = true
	if err := s.Put(fp(0), partial); err == nil {
		t.Fatal("Put accepted a partial result")
	}
	for _, bad := range []string{"", "short", "../../../../etc/passwd", "ABCDEF0123456789", "0123456789abcdef/../x"} {
		if err := s.Put(bad, testResult(1.0)); err == nil {
			t.Fatalf("Put accepted fingerprint %q", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Fatalf("Get hit fingerprint %q", bad)
		}
	}
}

// TestConcurrentReadersWriters hammers one store with concurrent Put and
// Get across overlapping keys; run under -race (make test-race / CI) this
// is the satellite's concurrency check. Readers must only ever observe a
// complete entry or a miss.
func TestConcurrentReadersWriters(t *testing.T) {
	s, _ := Open(t.TempDir())
	const keys = 8
	const writers = 4
	const readers = 8
	const rounds = 50

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fp(i % keys)
				if err := s.Put(k, testResult(float64(i%keys)+1)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds*2; i++ {
				k := fp(i % keys)
				if res, ok := s.Get(k); ok {
					// Entries are internally consistent: IPC encodes the key.
					if want := float64(i%keys) + 1; res.IPC != want {
						t.Errorf("torn read: key %d has IPC %v, want %v", i%keys, res.IPC, want)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}
