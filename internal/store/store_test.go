package store

import (
	"bytes"
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

func tempStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// TestCorruptEntriesDiscarded: a truncated, garbage or bit-flipped Result
// file is a miss and is removed, never a parse failure propagated to the
// caller, and the store takes a fresh Put for the same key.
func TestCorruptEntriesDiscarded(t *testing.T) {
	checkDamage(t, storedResult, "cut inside the payload", "garbage file", "bit flip in the payload")
}

// TestVersionSkewIsMissNotDeletion: a Result file whose header names
// another version is a miss left on disk, since a newer binary may own it.
func TestVersionSkewIsMissNotDeletion(t *testing.T) {
	checkDamage(t, storedResult, "skewed version")
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
	_, payload, _ := bytes.Cut(raw, []byte{'\n'})
	var res map[string]json.RawMessage
	if err := json.Unmarshal(payload, &res); err != nil {
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
	os.WriteFile(path, storedFile(resultFile.version, payload), 0o644)
	if got, ok := s.Get(fp(0)); ok {
		t.Fatalf("entry with an old-shape History served as a hit: %+v", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("entry whose Result does not unmarshal was not unlinked (err=%v)", err)
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
