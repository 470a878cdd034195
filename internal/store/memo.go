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

// Memo is the result cache the experiment harness and the job service
// consult by fingerprint, safe for concurrent use. With a Store it is
// that store, every Get its verified read and every Put its write, so no
// second copy can disagree with the disk; without one it is an in-memory
// map of Results, which never change: simulations are deterministic.
type Memo struct {
	st *Store // nil: memory only

	mu  sync.Mutex
	res map[string]sim.Result // without a store only
}

// NewMemo returns an empty memo over st, which may be nil.
func NewMemo(st *Store) *Memo {
	if st != nil {
		return &Memo{st: st}
	}
	return &Memo{res: make(map[string]sim.Result)}
}

// Get returns the Result cached under fp.
func (m *Memo) Get(fp string) (sim.Result, bool) {
	if m.st != nil {
		return m.st.Get(fp)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.res[fp]
	return res, ok
}

// Put caches a full run's Result under fp and returns the store's error.
// A partial result is refused.
func (m *Memo) Put(fp string, res sim.Result) error {
	if m.st != nil {
		return m.st.Put(fp, res)
	}
	if res.Partial {
		return errPartial
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.res[fp] = res
	return nil
}
