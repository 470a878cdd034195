package store

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

const ledgerFP = "aabbccdd00112233"

func provAt(t *testing.T, worker string, queue, run, wall float64) Provenance {
	t.Helper()
	now := time.Now().UTC().Truncate(time.Millisecond)
	return Provenance{
		Fingerprint: ledgerFP,
		TraceID:     "trace-" + worker,
		Worker:      worker,
		LeaseGen:    0,
		Outcome:     OutcomeExecuted,
		Submitted:   now.Add(-time.Duration(wall) * time.Millisecond),
		Finished:    now,
		QueueWaitMS: queue,
		RunMS:       run,
		WallMS:      wall,
	}
}

func TestLedgerAppendRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Empty history reads as empty, not an error.
	if got, err := s.ReadProvenance(ledgerFP); err != nil || len(got) != 0 {
		t.Fatalf("empty ledger: got %d entries, err %v", len(got), err)
	}
	for i, w := range []string{"worker-a", "worker-b", "worker-a"} {
		p := provAt(t, w, 5, 20, 30)
		p.LeaseGen = i
		if err := s.AppendProvenance(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.ReadProvenance(ledgerFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ledger entries = %d, want 3", len(got))
	}
	// Oldest-first order and round-tripped fields.
	for i, want := range []string{"worker-a", "worker-b", "worker-a"} {
		if got[i].Worker != want || got[i].LeaseGen != i {
			t.Fatalf("entry %d = %+v, want worker %q gen %d", i, got[i], want, i)
		}
	}
	if got[0].Outcome != OutcomeExecuted || got[0].TraceID != "trace-worker-a" {
		t.Fatalf("round-trip lost fields: %+v", got[0])
	}
	if got[0].QueueWaitMS+got[0].RunMS > got[0].WallMS {
		t.Fatalf("duration invariant violated in round-trip: %+v", got[0])
	}
}

func TestLedgerRejectsInvalidFP(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.AppendProvenance(Provenance{Fingerprint: "../escape"}); err == nil {
		t.Fatal("append accepted a path-escaping fingerprint")
	}
	if _, err := s.ReadProvenance("NOPE"); err == nil {
		t.Fatal("read accepted an invalid fingerprint")
	}
}

// TestLedgerSkipsTornTail simulates a crash mid-append: the reader must
// return the intact prefix and skip the torn line, and a later append
// must still be read back.
func TestLedgerSkipsTornTail(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.AppendProvenance(provAt(t, "worker-a", 1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.path(ledgerFP, ledgerSuffix), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":1,"fingerprint":"aabb`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := s.ReadProvenance(ledgerFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Worker != "worker-a" {
		t.Fatalf("torn tail not skipped: %+v", got)
	}
	// The next append starts a line of its own rather than merging into
	// the torn one.
	if err := s.AppendProvenance(provAt(t, "worker-b", 1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if got, err = s.ReadProvenance(ledgerFP); err != nil || len(got) != 2 || got[1].Worker != "worker-b" {
		t.Fatalf("entry appended after a torn tail: %+v, %v; want worker-a then worker-b", got, err)
	}
}

// TestLedgerSkipsForeignLines: a ledger holding a live claim's JSON and
// an entry for another fingerprint reads back empty; both lines parse
// at entryVersion, so only the fingerprint tells them apart. An entry of
// its own appended after them is the one read back.
func TestLedgerSkipsForeignLines(t *testing.T) {
	s, _ := Open(t.TempDir())
	claim, _ := json.Marshal(ClaimInfo{Version: entryVersion, Owner: "ghost", Nonce: "n", Expires: time.Now().Add(time.Hour)})
	other := provAt(t, "worker-z", 1, 2, 4)
	other.Version, other.Fingerprint = entryVersion, "99887766aabbccdd"
	entry, _ := json.Marshal(other)
	writeFile(t, s.path(ledgerFP, ledgerSuffix), append(append(append(claim, '\n'), entry...), '\n'))
	if got, err := s.ReadProvenance(ledgerFP); err != nil || len(got) != 0 {
		t.Fatalf("ledger of foreign lines read back %+v, %v; want no entries", got, err)
	}
	if err := s.AppendProvenance(provAt(t, "worker-a", 1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadProvenance(ledgerFP); err != nil || len(got) != 1 || got[0].Worker != "worker-a" {
		t.Fatalf("ledger after an append = %+v, %v; want worker-a's entry alone", got, err)
	}
}

// TestLedgerConcurrentAppend drives parallel appenders (the multi-worker
// fleet case, same-process flavor) and checks no line is torn.
func TestLedgerConcurrentAppend(t *testing.T) {
	s, _ := Open(t.TempDir())
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := provAt(t, "w", 1, 2, 4)
				// Pad to make torn interleavings detectable.
				p.Error = strings.Repeat("x", 100+w)
				p.Outcome = OutcomeFailed
				if err := s.AppendProvenance(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := s.ReadProvenance(ledgerFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*per {
		t.Fatalf("ledger entries = %d, want %d (torn or lost lines)", len(got), writers*per)
	}
}

// TestClaimTracePropagation checks the claim file carries the trace ID
// to other workers, and Gen reflects steals.
func TestClaimTracePropagation(t *testing.T) {
	s, _ := Open(t.TempDir())
	fp := "00112233aabbccdd"
	acquired, info, err := s.Claim(fp, "worker-a", 50*time.Millisecond, "trace-xyz")
	if err != nil || !acquired {
		t.Fatalf("claim: %v %v", acquired, err)
	}
	if info.Gen() != 0 || info.Stolen {
		t.Fatalf("fresh claim gen/stolen = %d/%v", info.Gen(), info.Stolen)
	}
	// A second worker sees the holder's trace while the lease is live.
	acquired, held, err := s.Claim(fp, "worker-b", 50*time.Millisecond, "")
	if err != nil || acquired {
		t.Fatalf("second claim: %v %v", acquired, err)
	}
	if held.Trace != "trace-xyz" {
		t.Fatalf("held claim trace = %q, want trace-xyz", held.Trace)
	}
	// After expiry, the thief joins the same trace via its own claim and
	// the generation advances.
	time.Sleep(60 * time.Millisecond)
	acquired, stolen, err := s.Claim(fp, "worker-b", 50*time.Millisecond, held.Trace)
	if err != nil || !acquired {
		t.Fatalf("steal: %v %v", acquired, err)
	}
	if !stolen.Stolen || stolen.Gen() != 1 || stolen.Trace != "trace-xyz" {
		t.Fatalf("steal info = %+v (gen %d)", stolen, stolen.Gen())
	}
}
