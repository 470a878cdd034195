package store

import (
	"bytes"
	"testing"
)

const traceFP = "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"

func traceStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTraceRoundTrip(t *testing.T) {
	s := traceStore(t)
	payload := []byte("{\"interval\":1}\n{\"interval\":2}\n")
	if err := s.PutTrace(traceFP, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetTrace(traceFP)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetTrace = (%q, %v), want the stored payload", got, ok)
	}

	// Replacement is atomic and total.
	next := []byte("{\"interval\":1}\n")
	if err := s.PutTrace(traceFP, next); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetTrace(traceFP); !bytes.Equal(got, next) {
		t.Fatalf("after replace GetTrace = %q", got)
	}
}

func TestTraceMissAndInvalidKeys(t *testing.T) {
	s := traceStore(t)
	if _, ok := s.GetTrace(traceFP); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.PutTrace("../escape", []byte("x")); err == nil {
		t.Fatal("PutTrace accepted a path-escaping key")
	}
	if _, ok := s.GetTrace("../escape"); ok {
		t.Fatal("GetTrace accepted a path-escaping key")
	}
}

// TestTraceCorruptionDiscarded: a trace whose payload fails the header's
// checksum, or whose header is garbage, is a miss and is unlinked.
func TestTraceCorruptionDiscarded(t *testing.T) {
	checkDamage(t, storedTrace, "bit flip in the payload", "garbage file", "garbage header")
}

// TestTraceNotCountedByLen pins the extension choice: traces are a
// sidecar artifact and must not inflate the store's Result count.
func TestTraceNotCountedByLen(t *testing.T) {
	s := traceStore(t)
	if err := s.PutTrace(traceFP, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after storing only a trace, want 0", got)
	}
}
