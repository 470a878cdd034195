package cache

// MSHREntry tracks one in-flight miss. The paper adds a pref-bit to each L2
// MSHR entry: when a demand request hits an entry whose pref-bit is set,
// the prefetch is late (Section 3.1.2).
//
// Completion wake-ups are not stored here: same-block demand requests merge
// in the hierarchy's L1-miss table before they ever reach the L2, so an
// MSHR entry has at most one continuation — "fill the L1" — and exactly
// when DemandMerged is set. The owner schedules that continuation itself,
// which keeps the entry a small plain value that can live in a slab.
type MSHREntry struct {
	Block Addr
	// Pref is set while the in-flight request is still "a prefetch", i.e.
	// no demand has asked for the block yet.
	Pref bool
	// DemandMerged is true once at least one demand request merged into
	// this entry; the fill then completes those demands.
	DemandMerged bool
	// AllocCycle records when the entry was allocated (for tests/debug).
	AllocCycle uint64
}

// MSHRFile models a fully associative miss-status holding register file
// with merging: one entry per in-flight block. Entries live in a slab
// sized at construction, addressed by a BlockIndex sized so it never
// grows, so the allocate/release cycle of the simulator's steady state
// touches no heap memory.
type MSHRFile struct {
	cap     int
	slab    []MSHREntry
	free    []int32
	entries BlockIndex
	// peakUsed tracks the high-water mark for statistics.
	peakUsed int
}

// NewMSHRFile creates an MSHR file with the given entry capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	m := &MSHRFile{
		cap:     capacity,
		slab:    make([]MSHREntry, capacity),
		free:    make([]int32, capacity),
		entries: NewBlockIndex(capacity),
	}
	for i := range m.free {
		m.free[i] = int32(capacity - 1 - i)
	}
	return m
}

// Lookup returns the in-flight entry for the block, or nil. The pointer is
// into the slab: it stays valid while the entry is live, and its contents
// only until the slot is released and reallocated.
func (m *MSHRFile) Lookup(block Addr) *MSHREntry {
	i, ok := m.entries.Get(block)
	if !ok {
		return nil
	}
	return &m.slab[i]
}

// Full reports whether no further entries can be allocated.
func (m *MSHRFile) Full() bool { return m.entries.Len() >= m.cap }

// Used returns the number of live entries.
func (m *MSHRFile) Used() int { return m.entries.Len() }

// Peak returns the high-water mark of live entries.
func (m *MSHRFile) Peak() int { return m.peakUsed }

// Allocate creates an entry for the block. It returns nil when the file is
// full or the block already has an entry (callers must Lookup first to
// merge instead).
func (m *MSHRFile) Allocate(block Addr, pref bool, cycle uint64) *MSHREntry {
	if m.Full() {
		return nil
	}
	if _, ok := m.entries.Get(block); ok {
		return nil
	}
	i := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.slab[i] = MSHREntry{Block: block, Pref: pref, AllocCycle: cycle}
	m.entries.Put(block, i)
	if n := m.entries.Len(); n > m.peakUsed {
		m.peakUsed = n
	}
	return &m.slab[i]
}

// Release removes the entry for the block (on fill) and returns it, or nil
// if no entry existed. The returned pointer's contents are valid until the
// next Allocate reuses the slot.
func (m *MSHRFile) Release(block Addr) *MSHREntry {
	i, ok := m.entries.Delete(block)
	if !ok {
		return nil
	}
	m.free = append(m.free, i)
	return &m.slab[i]
}
