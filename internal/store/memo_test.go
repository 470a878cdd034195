package store

import (
	"os"
	"sync"
	"testing"
)

func TestMemoMemoryOnly(t *testing.T) {
	m := NewMemo(nil)
	if _, ok := m.Get(fp(0)); ok {
		t.Fatal("empty memo hit")
	}
	want := testResult(1.5)
	if err := m.Put(fp(0), want); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Get(fp(0))
	if !ok || got.IPC != want.IPC || got.Counters != want.Counters {
		t.Fatalf("Get = %+v, %v; want %+v", got, ok, want)
	}
	if _, ok := m.Get(fp(1)); ok {
		t.Fatal("memo hit on a fingerprint never put")
	}
}

// TestMemoStoreHitFillsMap: a store hit is copied into memory, so the
// disk is read once per fingerprint — the second Get hits even after the
// entry file is gone.
func TestMemoStoreHitFillsMap(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testResult(2.25)
	if err := s.Put(fp(0), want); err != nil {
		t.Fatal(err)
	}
	m := NewMemo(s)
	if got, ok := m.Get(fp(0)); !ok || got.IPC != want.IPC {
		t.Fatalf("store-backed Get = %+v, %v", got, ok)
	}
	if err := os.Remove(s.path(fp(0))); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(fp(0)); !ok || got.IPC != want.IPC {
		t.Fatalf("second Get after the entry was deleted = %+v, %v; want a memory hit", got, ok)
	}
}

func TestMemoRefusesPartial(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(s)
	partial := testResult(1.0)
	partial.Partial = true
	if err := m.Put(fp(0), partial); err == nil {
		t.Fatal("Put of a partial result succeeded")
	}
	if _, ok := m.Get(fp(0)); ok {
		t.Fatal("partial result cached")
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("store holds %d entries after a refused Put", n)
	}
	if err := NewMemo(nil).Put(fp(0), partial); err == nil {
		t.Fatal("memory-only Put of a partial result succeeded")
	}
}

// TestMemoConcurrent races Gets and Puts over a shared set of
// fingerprints; run under -race it checks the memo's locking.
func TestMemoConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(s)
	const workers, keys = 8, 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * keys {
				k := fp((w + i) % keys)
				if res, ok := m.Get(k); ok && res.IPC != 1.5 {
					t.Errorf("Get(%s) = IPC %v, want 1.5", k[:8], res.IPC)
				}
				if err := m.Put(k, testResult(1.5)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		if _, ok := m.Get(fp(k)); !ok {
			t.Fatalf("fingerprint %d missing after the race", k)
		}
	}
}
