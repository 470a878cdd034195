package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fdpsim/internal/sim"
)

// testFP returns a syntactically valid fingerprint for claim tests.
func testFP(i int) string {
	return fmt.Sprintf("%064x", 0xfeed0000+i)
}

// twoHandles opens two independent Store handles on one directory — the
// in-process stand-in for two fdpserved processes sharing a fleet store.
func twoHandles(t *testing.T) (*Store, *Store) {
	t.Helper()
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestClaimLifecycle(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(1)

	acquired, info, err := a.Claim(fp, "w1", time.Minute, "")
	if err != nil || !acquired {
		t.Fatalf("first claim = %v, %v, want acquired", acquired, err)
	}
	if info.Owner != "w1" || info.Nonce == "" {
		t.Fatalf("claim info incomplete: %+v", info)
	}

	// A second worker sees the live lease with the holder's identity.
	acquired, held, err := b.Claim(fp, "w2", time.Minute, "")
	if err != nil || acquired {
		t.Fatalf("contended claim = %v, %v, want held", acquired, err)
	}
	if held.Owner != "w1" || !held.Expires.After(time.Now()) {
		t.Fatalf("held info: %+v", held)
	}

	// Renewal extends the lease; a non-owner cannot renew.
	if !a.Renew(fp, "w1", time.Minute) {
		t.Fatal("owner renewal failed")
	}
	if b.Renew(fp, "w2", time.Minute) {
		t.Fatal("non-owner renewal succeeded")
	}

	// A claim decides ownership only: after Put and Release the next
	// claimant acquires afresh, and the stored result is its to read.
	res := sim.Result{Workload: "seqstream", IPC: 1.5}
	if err := a.Put(fp, res); err != nil {
		t.Fatal(err)
	}
	a.Release(fp, "w1")
	acquired, info, err = b.Claim(fp, "w2", time.Minute, "")
	if err != nil || !acquired || info.Stolen || info.Gen() != 0 {
		t.Fatalf("claim after put and release = %v (stolen %v, gen %d), %v, want a fresh acquire",
			acquired, info.Stolen, info.Gen(), err)
	}
	if got, ok := b.Get(fp); !ok || got.IPC != res.IPC {
		t.Fatalf("result not readable after release: %+v %v", got, ok)
	}
}

func TestClaimStealAfterExpiry(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(2)

	if acquired, _, _ := a.Claim(fp, "ghost", 10*time.Millisecond, ""); !acquired {
		t.Fatal("ghost claim not acquired")
	}
	// Before expiry the lease holds.
	if acquired, _, _ := b.Claim(fp, "w2", time.Minute, ""); acquired {
		t.Fatal("pre-expiry claim acquired, want held")
	}
	time.Sleep(20 * time.Millisecond)

	acquired, info, err := b.Claim(fp, "w2", time.Minute, "")
	if err != nil || !acquired {
		t.Fatalf("post-expiry claim = %v, %v, want acquired", acquired, err)
	}
	if !info.Stolen {
		t.Fatal("post-expiry acquisition not marked stolen")
	}
	// The ghost's renewal must now fail: its claim was replaced.
	if a.Renew(fp, "ghost", time.Minute) {
		t.Fatal("ghost renewed a stolen claim")
	}
}

func TestClaimCorruptRecovery(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(3)

	// A crash mid-acquire leaves a torn claim file; the next worker must
	// steal it rather than wedge.
	path := a.claimPath(fp, 0)
	if err := os.MkdirAll(dirOf(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"owner":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	acquired, info, err := b.Claim(fp, "w2", time.Minute, "")
	if err != nil || !acquired || !info.Stolen {
		t.Fatalf("claim over corrupt file = %v (stolen=%v), %v, want stolen acquisition", acquired, info.Stolen, err)
	}
}

func dirOf(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "."
}

// TestClaimRaceExclusive drives many goroutines across two handles at the
// same fingerprint: exactly one acquisition per fingerprint, everyone
// else held. Run under -race in CI, this is the multi-process claim
// correctness test.
func TestClaimRaceExclusive(t *testing.T) {
	a, b := twoHandles(t)
	handles := []*Store{a, b}

	for round := 0; round < 8; round++ {
		fp := testFP(100 + round)
		const racers = 16
		var wg sync.WaitGroup
		acquired := make(chan string, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				owner := fmt.Sprintf("w%d", i)
				won, _, err := handles[i%2].Claim(fp, owner, time.Minute, "")
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if won {
					acquired <- owner
				}
			}(i)
		}
		wg.Wait()
		close(acquired)
		var winners []string
		for w := range acquired {
			winners = append(winners, w)
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d workers acquired the same claim: %v", round, len(winners), winners)
		}
	}
}

// TestClaimStealRace races several thieves over one expired claim:
// exactly one steal must win.
func TestClaimStealRace(t *testing.T) {
	a, b := twoHandles(t)
	handles := []*Store{a, b}
	fp := testFP(200)

	if acquired, _, _ := a.Claim(fp, "ghost", time.Nanosecond, ""); !acquired {
		t.Fatal("seeding expired claim failed")
	}
	time.Sleep(time.Millisecond)

	const thieves = 12
	var wg sync.WaitGroup
	acquired := make(chan string, thieves)
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := fmt.Sprintf("thief%d", i)
			won, _, err := handles[i%2].Claim(fp, owner, time.Minute, "")
			if err != nil {
				t.Errorf("claim: %v", err)
				return
			}
			if won {
				acquired <- owner
			}
		}(i)
	}
	wg.Wait()
	close(acquired)
	n := 0
	for range acquired {
		n++
	}
	if n != 1 {
		t.Fatalf("%d thieves stole one expired claim, want exactly 1", n)
	}
}

// TestStorePutGetRace races two handles writing and reading the same
// fingerprint (the fleet's redundant-execution case): every Get must see
// either a miss or a fully valid entry, never a torn one.
func TestStorePutGetRace(t *testing.T) {
	a, b := twoHandles(t)
	fp := testFP(300)
	res := sim.Result{Workload: "seqstream", IPC: 2.0, BPKI: 7.5}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := a
			if i%2 == 1 {
				h = b
			}
			for k := 0; k < 50; k++ {
				if err := h.Put(fp, res); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, ok := h.Get(fp); ok && (got.IPC != res.IPC || got.BPKI != res.BPKI) {
					t.Errorf("torn read: %+v", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got, ok := a.Get(fp); !ok || got.IPC != res.IPC {
		t.Fatalf("final read: %+v %v", got, ok)
	}
}

// FuzzClaimFile writes arbitrary bytes as the highest claim generation's
// file and as the provenance ledger. Claim, Renew, Release and
// ReadProvenance must not panic. A file that is not a live claim is
// stolen at the next generation; a non-owner's Renew and Release change
// no file. The ledger reads back only entries at entryVersion that name
// its fingerprint, never more entries than lines, and an entry appended
// after the bytes is read back.
func FuzzClaimFile(f *testing.F) {
	live, _ := json.Marshal(ClaimInfo{Version: entryVersion, Owner: "ghost", Nonce: "n", Expires: time.Now().Add(time.Hour)})
	entry, _ := json.Marshal(Provenance{Version: entryVersion, Fingerprint: testFP(0), Outcome: OutcomeExecuted})
	for _, seed := range []string{string(live), string(entry), string(entry) + "\n", `{"version":1,"owner":"torn`, ""} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // ReadProvenance bounds a line at 1 MiB
		}
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key, gen := testFP(0), 2
		writeFile(t, s.claimPath(key, gen), data)
		bucket := filepath.Dir(s.claimPath(key, gen))
		files := func() map[string]string {
			out := map[string]string{}
			entries, _ := os.ReadDir(bucket)
			for _, e := range entries {
				raw, _ := os.ReadFile(filepath.Join(bucket, e.Name()))
				out[e.Name()] = string(raw)
			}
			return out
		}

		var c ClaimInfo
		isLive := json.Unmarshal(data, &c) == nil && c.Version == entryVersion && time.Now().Before(c.Expires)
		before := files()
		if s.Renew(key, c.Owner+"-other", time.Minute) {
			t.Fatal("a non-owner renewed the claim")
		}
		s.Release(key, c.Owner+"-other")
		if after := files(); !reflect.DeepEqual(after, before) {
			t.Fatalf("a non-owner's Renew or Release changed the bucket: %v -> %v", before, after)
		}
		acquired, info, err := s.Claim(key, c.Owner+"-other", time.Minute, "")
		switch {
		case err != nil:
			t.Fatal(err)
		case isLive && (acquired || info.Owner != c.Owner):
			t.Fatalf("live claim of %q: acquired %v, holder %q", c.Owner, acquired, info.Owner)
		case !isLive && (!acquired || !info.Stolen || info.Gen() != gen+1):
			t.Fatalf("claim over a dead file: acquired %v, stolen %v, gen %d; want a steal at gen %d",
				acquired, info.Stolen, info.Gen(), gen+1)
		}

		writeFile(t, s.path(key, ledgerSuffix), data)
		got, _ := s.ReadProvenance(key)
		for _, p := range got {
			if p.Version != entryVersion || p.Fingerprint != key {
				t.Fatalf("ledger entry at version %d for %q read back from %s's ledger", p.Version, p.Fingerprint, key)
			}
		}
		if lines := bytes.Count(data, []byte{'\n'}) + 1; len(got) > lines {
			t.Fatalf("%d entries read from %d lines", len(got), lines)
		}
		if err := s.AppendProvenance(Provenance{Fingerprint: key, TraceID: "appended"}); err != nil {
			t.Fatal(err)
		}
		after, err := s.ReadProvenance(key)
		if err != nil || len(after) != len(got)+1 || after[len(got)].TraceID != "appended" {
			t.Fatalf("entry appended after %q not read back: %d entries before, %+v after (%v)", data, len(got), after, err)
		}
	})
}
