package store

import (
	"errors"
	"sync"

	"fdpsim/internal/sim"
)

// errPartial refuses a cancelled run's result in every cache layer: its
// metrics are valid but are not the answer for the configuration's full
// target.
var errPartial = errors.New("store: refusing to cache a partial result")

// Memo is the read-through result cache the experiment harness and the
// job service put in front of a Store: an in-memory map of Results by
// fingerprint, backed by the optional on-disk store. Simulations are
// deterministic, so a fingerprint's Result never changes once computed.
// A Memo is safe for concurrent use.
type Memo struct {
	st *Store // nil: memory only

	mu  sync.Mutex
	res map[string]sim.Result
}

// NewMemo returns an empty memo reading through st, which may be nil.
func NewMemo(st *Store) *Memo {
	return &Memo{st: st, res: make(map[string]sim.Result)}
}

// Get returns the Result cached under fp: from memory, else from the
// store, whose hit is copied into memory so the disk is read once per
// fingerprint.
func (m *Memo) Get(fp string) (sim.Result, bool) {
	m.mu.Lock()
	res, ok := m.res[fp]
	m.mu.Unlock()
	if ok || m.st == nil {
		return res, ok
	}
	if res, ok = m.st.Get(fp); ok {
		m.mu.Lock()
		m.res[fp] = res
		m.mu.Unlock()
	}
	return res, ok
}

// Put caches a full run's Result under fp in memory, then in the store,
// and returns the store's error. A partial result is refused by both.
func (m *Memo) Put(fp string, res sim.Result) error {
	if res.Partial {
		return errPartial
	}
	m.mu.Lock()
	m.res[fp] = res
	m.mu.Unlock()
	if m.st == nil {
		return nil
	}
	return m.st.Put(fp, res)
}
