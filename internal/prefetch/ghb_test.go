package prefetch

import (
	"testing"
	"testing/quick"
)

func TestGHBConstantStride(t *testing.T) {
	g := NewGHB(256, 256, 1024)
	g.SetLevel(3) // degree 8
	var out []uint64
	for i := uint64(0); i < 8; i++ {
		out = missAt(g, 100+i*4)
	}
	if len(out) != 8 {
		t.Fatalf("prefetches = %d, want degree 8", len(out))
	}
	last := 100 + 7*4
	for k, p := range out {
		if want := uint64(last) + uint64(k+1)*4; p != want {
			t.Fatalf("prefetch[%d] = %d, want %d", k, p, want)
		}
	}
}

func TestGHBRepeatingDeltaPattern(t *testing.T) {
	g := NewGHB(256, 256, 1024)
	g.SetLevel(2) // degree 4
	// Delta pattern +1,+3 repeating: 0,1,4,5,8,9,12 ...
	addrs := []uint64{0, 1, 4, 5, 8, 9, 12}
	var out []uint64
	for _, a := range addrs {
		out = missAt(g, a)
	}
	// After ...,9(+1?),12: last two deltas (3,1)? compute: deltas:
	// 1,3,1,3,1,3 — key (1,3); earlier occurrence found; replay 1,3,...
	want := []uint64{13, 16, 17, 20}
	if len(out) != len(want) {
		t.Fatalf("prefetches = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("prefetches = %v, want %v", out, want)
		}
	}
}

func TestGHBNoMatchNoPrefetch(t *testing.T) {
	g := NewGHB(256, 256, 1024)
	// Distinct deltas with no repeating pair.
	for _, a := range []uint64{0, 1, 5, 20, 22, 90} {
		if out := missAt(g, a); out != nil {
			t.Fatalf("prefetched %v without a delta-pair match", out)
		}
	}
}

func TestGHBZoneIsolation(t *testing.T) {
	g := NewGHB(256, 256, 64) // 64-block zones
	// A stride in zone 0 must not be polluted by interleaved misses in a
	// far zone.
	var out []uint64
	for i := uint64(0); i < 6; i++ {
		out = missAt(g, i*2)
		missAt(g, 100000+i*17)
	}
	if len(out) == 0 {
		t.Fatal("zone-0 stride not detected amid interleaved other-zone misses")
	}
	for _, p := range out {
		if p >= 64 {
			t.Fatalf("prefetch %d crossed out of the training zone's region unreasonably", p)
		}
	}
}

func TestGHBHitsDoNotTrain(t *testing.T) {
	g := NewGHB(256, 256, 1024)
	for i := uint64(0); i < 8; i++ {
		if out := observe(g, Event{Block: 100 + i, Miss: false}); out != nil {
			t.Fatal("GHB trained on an L2 hit")
		}
	}
}

func TestGHBBufferWrapInvalidatesLinks(t *testing.T) {
	g := NewGHB(8, 256, 1024) // tiny buffer
	// Fill with zone A, then overflow with zone B; zone A's chain must be
	// truncated, not corrupted.
	for i := uint64(0); i < 4; i++ {
		missAt(g, i)
	}
	for i := uint64(0); i < 16; i++ {
		missAt(g, 100000+i*3)
	}
	// Returning to zone A allocates fresh history without panicking.
	for i := uint64(4); i < 8; i++ {
		missAt(g, i)
	}
	if h := g.history(0); len(h) > 8 {
		t.Fatalf("history longer than buffer: %d", len(h))
	}
}

func TestGHBIndexTableEviction(t *testing.T) {
	g := NewGHB(1024, 4, 64) // only 4 index entries
	for z := uint64(0); z < 10; z++ {
		missAt(g, z*64)
	}
	if n := g.index.Len(); n > 4 {
		t.Fatalf("index table grew to %d entries, cap 4", n)
	}
}

// TestGHBEvictsLeastRecentlyUsedZone: a full index table gives up the
// zone whose last miss is oldest, not the zone inserted first.
func TestGHBEvictsLeastRecentlyUsedZone(t *testing.T) {
	const zone = 64 // blocks per zone
	g := NewGHB(1024, 4, zone)
	g.SetLevel(2) // degree 4
	a, b, c, d, e := uint64(0), uint64(1), uint64(2), uint64(3), uint64(4)
	for _, blk := range []uint64{0, 1, 4, 5, 8, 9} { // deltas +1,+3 in zone A
		missAt(g, a*zone+blk)
	}
	missAt(g, b*zone)
	missAt(g, c*zone)
	missAt(g, d*zone)
	missAt(g, a*zone+12) // A becomes the most recently used zone
	missAt(g, e*zone)    // the table is full: B, the LRU zone, goes
	if h := g.history(b); h != nil {
		t.Fatalf("zone B kept its history %v after eviction", h)
	}
	for _, z := range []uint64{a, c, d, e} {
		if g.history(z) == nil {
			t.Fatalf("zone %d lost its history; only B should be evicted", z)
		}
	}
	if n := g.index.Len(); n != 4 {
		t.Fatalf("index table holds %d zones, want 4", n)
	}
	out := missAt(g, a*zone+13)
	want := []uint64{16, 17, 20, 21}
	if len(out) != len(want) {
		t.Fatalf("zone A prefetches = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("zone A prefetches = %v, want %v", out, want)
		}
	}
}

func TestGHBDegreeFollowsLevel(t *testing.T) {
	for lvl := 1; lvl <= 5; lvl++ {
		g := NewGHB(256, 256, 1024)
		g.SetLevel(lvl)
		var out []uint64
		for i := uint64(0); i < 8; i++ {
			out = missAt(g, 1000+i)
		}
		if len(out) != GHBDegrees[lvl] {
			t.Errorf("level %d issued %d, want %d", lvl, len(out), GHBDegrees[lvl])
		}
	}
}

// TestGHBPrefetchesFollowRecordedDeltas: for any small positive stride the
// prefetch stream continues that stride exactly.
func TestGHBStrideProperty(t *testing.T) {
	f := func(strideRaw uint8, startRaw uint16) bool {
		stride := uint64(strideRaw%32) + 1
		start := uint64(startRaw)
		g := NewGHB(256, 256, 1<<20)
		g.SetLevel(3)
		var out []uint64
		for i := uint64(0); i < 6; i++ {
			out = missAt(g, start+i*stride)
		}
		if len(out) == 0 {
			return false
		}
		last := start + 5*stride
		for k, p := range out {
			if p != last+uint64(k+1)*stride {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
