package store

import (
	"bytes"
	"testing"

	"fdpsim/internal/series"
	"fdpsim/internal/sim"
)

const seriesFP = "fe98dc76ba54fe98dc76ba54fe98dc76ba54fe98dc76ba54fe98dc76ba54fe98"

// encodedSeries builds a valid series document of n events.
func encodedSeries(t testing.TB, n int) []byte {
	t.Helper()
	rec := &series.Recorder{}
	for i := 1; i <= n; i++ {
		rec.TraceDecision(sim.DecisionEvent{Interval: uint64(i), Cycle: uint64(i) * 1000,
			Retired: uint64(i) * 700, Controller: "fdp", DCCAfter: 1 + i%5, Insertion: "MID"})
	}
	sr := rec.Series()
	sr.Meta.Workload = "chaserand"
	doc, err := series.Encode(sr)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestSeriesRoundTrip(t *testing.T) {
	s := tempStore(t)
	doc := encodedSeries(t, 8)
	if err := s.PutSeries(seriesFP, doc); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetSeries(seriesFP)
	if !ok || !bytes.Equal(got, doc) {
		t.Fatalf("GetSeries returned (%d bytes, %v), want the stored document", len(got), ok)
	}

	// Replacement is atomic and total.
	next := encodedSeries(t, 3)
	if err := s.PutSeries(seriesFP, next); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetSeries(seriesFP); !bytes.Equal(got, next) {
		t.Fatal("replacement not visible")
	}
}

func TestSeriesMissAndInvalidKeys(t *testing.T) {
	s := tempStore(t)
	if _, ok := s.GetSeries(seriesFP); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.PutSeries("../escape", encodedSeries(t, 1)); err == nil {
		t.Fatal("PutSeries accepted a path-escaping key")
	}
	if _, ok := s.GetSeries("../escape"); ok {
		t.Fatal("GetSeries accepted a path-escaping key")
	}
	if err := s.PutSeries(seriesFP, []byte("not a series document")); err == nil {
		t.Fatal("PutSeries accepted an undecodable document")
	}
}

// TestSeriesTruncationDiscarded tears the series file at several points:
// each torn file must miss and be unlinked.
func TestSeriesTruncationDiscarded(t *testing.T) {
	checkDamage(t, storedSeries, "cut at 0 bytes", "cut inside the header", "cut inside the payload", "one byte short")
}

// TestSeriesBitFlipsDiscarded flips a bit at every 7th byte of the series
// file: the header's checksum catches each flip, so each must miss and
// unlink.
func TestSeriesBitFlipsDiscarded(t *testing.T) {
	checkDamage(t, storedSeries, "bit flips across the file")
}

// TestSeriesVersionSkewLeavesFile: a series file whose header names
// another version is a miss but stays on disk for newer readers; damage
// is unlinked, skew is not.
func TestSeriesVersionSkewLeavesFile(t *testing.T) {
	checkDamage(t, storedSeries, "skewed version")
}

// TestSeriesNotCountedByLen pins the extension choice: the series is a
// sidecar and must not inflate the store's Result count.
func TestSeriesNotCountedByLen(t *testing.T) {
	s := tempStore(t)
	if err := s.PutSeries(seriesFP, encodedSeries(t, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after storing only a series, want 0", got)
	}
}
