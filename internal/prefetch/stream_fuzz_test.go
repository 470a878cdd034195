package prefetch

import (
	"slices"
	"testing"
)

// refStream is the stream tracker as it was before the packed match keys:
// the same entries, trained and advanced by the same train and issue, but
// found by scans that branch on each entry's state and direction, and aged
// by a lastUsed tick per entry.
type refStream struct {
	// s lends its level, ramp, address bound, train, issue and
	// MonitorRegions; it shares entries, and its keys go unused.
	s        *StreamPrefetcher
	entries  []streamEntry
	lastUsed []uint64
	tick     uint64
}

func newRefStream(n int) *refStream {
	s := NewStream(n)
	return &refStream{s: s, entries: s.entries, lastUsed: make([]uint64, n)}
}

func (r *refStream) Observe(ev *Event, out []uint64) []uint64 {
	r.tick++
	addr := int64(ev.Block)
	if i := r.findMonitor(addr); i >= 0 {
		r.lastUsed[i] = r.tick
		r.entries[i].accesses++
		return r.s.issue(&r.entries[i], out)
	}
	if !ev.Miss {
		return out
	}
	if i := r.findTraining(addr); i >= 0 {
		e := &r.entries[i]
		r.lastUsed[i] = r.tick
		r.s.train(e, addr)
		if e.state == streamMonitor {
			return r.s.issue(e, out)
		}
		return out
	}
	i := r.victim()
	r.entries[i] = streamEntry{state: streamAllocated, first: addr, last: addr}
	r.lastUsed[i] = r.tick
	return out
}

func (r *refStream) findMonitor(addr int64) int {
	for i := range r.entries {
		e := &r.entries[i]
		if e.state != streamMonitor {
			continue
		}
		if e.dir > 0 && addr >= e.start && addr <= e.end {
			return i
		}
		if e.dir < 0 && addr <= e.start && addr >= e.end {
			return i
		}
	}
	return -1
}

func (r *refStream) findTraining(addr int64) int {
	for i := range r.entries {
		e := &r.entries[i]
		if e.state != streamAllocated && e.state != streamTraining {
			continue
		}
		if delta := addr - e.first; delta >= -trainWindow && delta <= trainWindow {
			return i
		}
	}
	return -1
}

func (r *refStream) victim() int {
	v := 0
	for i := range r.entries {
		if r.entries[i].state == streamInvalid {
			return i
		}
		if r.lastUsed[i] < r.lastUsed[v] {
			v = i
		}
	}
	return v
}

// streamFuzzBlock maps a fuzz byte to a block near 0, near 1,000 or just
// below the tracker's 2^58 address bound.
func streamFuzzBlock(region, arg byte) uint64 {
	switch region % 3 {
	case 0:
		return uint64(arg % 64)
	case 1:
		return 1000 - 128 + uint64(arg)
	}
	return 1<<58 - 128 + uint64(arg)
}

// streamOps encodes a seed: one (op, arg) pair per call, as
// FuzzStreamTable decodes them.
func streamOps(n byte, pairs ...byte) []byte { return append([]byte{n}, pairs...) }

// FuzzStreamTable drives the stream tracker and refStream with the same
// calls — demand misses and hits near 0, near 1,000 and near 2^58,
// SetLevel 1..5 and the per-stream ramp — over 1 to 64 entries, and
// requires equal prefetches, monitored regions and entries after every
// call.
func FuzzStreamTable(f *testing.F) {
	// A descending stream near block 0 at Very Aggressive: issue pushes
	// the end pointer below 0, and later hits at 0 must still match.
	f.Add(streamOps(63, 2, 4, 0, 20, 0, 19, 0, 18, 1, 14, 1, 12, 1, 8, 1, 4, 1, 1, 1, 0, 1, 0, 0, 5))
	// Ascending near 1,000, ramped, then the level drops mid-stream.
	f.Add(streamOps(15, 3, 1, 4, 100, 4, 101, 4, 102, 5, 103, 5, 110, 2, 0, 5, 120, 5, 121))
	// Streams near 2^58 run into the address bound.
	f.Add(streamOps(4, 2, 3, 8, 200, 8, 201, 8, 202, 9, 210, 9, 240, 9, 255))
	// One entry: every new miss evicts the only stream.
	f.Add(streamOps(0, 0, 10, 0, 11, 4, 10, 0, 12, 4, 11, 1, 13))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		got, want := NewStream(n), newRefStream(n)
		var gotOut, wantOut []uint64
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			op, arg := data[0], data[1]
			switch op % 4 {
			case 0, 1:
				ev := Event{Block: streamFuzzBlock(op>>2, arg), Miss: op%4 == 0}
				gotOut = got.Observe(&ev, gotOut[:0])
				wantOut = want.Observe(&ev, wantOut[:0])
				if !slices.Equal(gotOut, wantOut) {
					t.Fatalf("Observe(%+v) = %v, reference %v", ev, gotOut, wantOut)
				}
			case 2:
				got.SetLevel(1 + int(arg)%5)
				want.s.SetLevel(1 + int(arg)%5)
			case 3:
				got.SetPerStreamRamp(arg&1 == 1)
				want.s.SetPerStreamRamp(arg&1 == 1)
			}
			if !slices.Equal(got.entries, want.entries) {
				t.Fatalf("entries diverged:\n got %+v\nwant %+v", got.entries, want.entries)
			}
			if g, w := got.MonitorRegions(), want.s.MonitorRegions(); !slices.Equal(g, w) {
				t.Fatalf("MonitorRegions = %v, reference %v", g, w)
			}
		}
	})
}

// TestStreamDescendingPastZero pins the case the modular window compare
// exists for: a descending region whose end pointer issue pushed below
// block 0 still matches the blocks it covers.
func TestStreamDescendingPastZero(t *testing.T) {
	s := NewStream(4)
	s.SetLevel(5) // degree 4
	for _, b := range []uint64{9, 8, 7} {
		missAt(s, b)
	}
	// Training ends at 7 with end = 5 and prefetches 4..1: end = 1. A hit
	// at 5 prefetches 0, stops at the edge, and still moves end to -3.
	if out := observe(s, Event{Block: 5}); !slices.Equal(out, []uint64{0}) {
		t.Fatalf("hit at 5 prefetched %v, want [0]", out)
	}
	r := s.MonitorRegions()
	if len(r) != 1 || r[0] != [3]int64{9, -3, -1} {
		t.Fatalf("regions = %v, want [[9 -3 -1]]", r)
	}
	if i := s.findMonitor(0); i < 0 {
		t.Fatalf("block 0 inside region %v did not match", r[0])
	}
}
