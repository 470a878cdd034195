package prefetch

import (
	"testing"
	"testing/quick"
)

// missAt feeds a demand L2 miss to the prefetcher.
func missAt(p Prefetcher, block uint64) []uint64 {
	return observe(p, Event{Block: block, Miss: true})
}

func TestStreamTrainsAscending(t *testing.T) {
	s := NewStream(64)
	s.SetLevel(1) // distance 4, degree 1
	if out := missAt(s, 1000); out != nil {
		t.Fatal("allocation miss prefetched")
	}
	if out := missAt(s, 1001); out != nil {
		t.Fatal("first training miss prefetched")
	}
	out := missAt(s, 1002) // second consistent vote: Monitor and Request
	if len(out) != 1 {
		t.Fatalf("transition issued %d prefetches, want degree=1", len(out))
	}
	// End pointer = last miss + startup distance (2); prefetch = end+1.
	if out[0] != 1005 {
		t.Fatalf("prefetch at %d, want 1005", out[0])
	}
	if len(s.MonitorRegions()) != 1 {
		t.Fatal("no monitor region after training")
	}
}

func TestStreamTrainsDescending(t *testing.T) {
	s := NewStream(64)
	s.SetLevel(1)
	missAt(s, 1000)
	missAt(s, 999)
	out := missAt(s, 998)
	// end = last + dir*startup = 998 - 2 = 996; prefetch = end + dir*1 = 995.
	if len(out) != 1 || out[0] != 995 {
		t.Fatalf("descending prefetch = %v, want [995]", out)
	}
	regions := s.MonitorRegions()
	if len(regions) != 1 || regions[0][2] != -1 {
		t.Fatalf("regions = %v, want one descending", regions)
	}
}

func TestStreamInconsistentDirectionRestartsTraining(t *testing.T) {
	s := NewStream(64)
	missAt(s, 1000)
	missAt(s, 1004)        // ascending vote
	out := missAt(s, 1001) // descending vote: restart
	if out != nil || len(s.MonitorRegions()) != 0 {
		t.Fatal("inconsistent votes still trained a stream")
	}
	// Two consistent descending votes from here complete training.
	missAt(s, 1000)
	if len(s.MonitorRegions()) != 1 {
		t.Fatal("retraining after restart failed")
	}
}

func TestStreamTrainingWindow(t *testing.T) {
	s := NewStream(64)
	missAt(s, 1000)
	// A miss beyond +/-16 blocks allocates its own entry instead of
	// training the first.
	missAt(s, 1020)
	missAt(s, 1001)
	missAt(s, 1002)
	if len(s.MonitorRegions()) != 1 {
		t.Fatalf("regions = %d, want 1 (distant miss must not train)", len(s.MonitorRegions()))
	}
}

func TestStreamMonitorIssuesDegreeAndAdvances(t *testing.T) {
	s := NewStream(64)
	s.SetLevel(3) // distance 16, degree 2
	missAt(s, 100)
	missAt(s, 101)
	first := missAt(s, 102) // monitor; end=104; prefetch 105,106; end=106
	if len(first) != 2 || first[0] != 105 || first[1] != 106 {
		t.Fatalf("transition prefetches = %v, want [105 106]", first)
	}
	// Access inside the region issues the next two and slides the end.
	out := observe(s, Event{Block: 103})
	if len(out) != 2 || out[0] != 107 || out[1] != 108 {
		t.Fatalf("monitor prefetches = %v, want [107 108]", out)
	}
}

func TestStreamDistanceClampsRegion(t *testing.T) {
	s := NewStream(64)
	s.SetLevel(1) // distance 4
	missAt(s, 100)
	missAt(s, 101)
	missAt(s, 102)
	for b := uint64(103); b < 120; b++ {
		observe(s, Event{Block: b})
	}
	r := s.MonitorRegions()[0]
	if size := r[1] - r[0]; size > 4 {
		t.Fatalf("region size %d exceeds distance 4", size)
	}
}

func TestStreamShrinksWhenLevelDrops(t *testing.T) {
	s := NewStream(64)
	s.SetLevel(5)
	missAt(s, 100)
	missAt(s, 101)
	missAt(s, 102)
	for b := uint64(103); b < 140; b++ {
		observe(s, Event{Block: b})
	}
	if r := s.MonitorRegions()[0]; r[1]-r[0] <= 4 {
		t.Fatalf("very aggressive region too small: %v", r)
	}
	s.SetLevel(1)
	observe(s, Event{Block: 140})
	if r := s.MonitorRegions()[0]; r[1]-r[0] > 4 {
		t.Fatalf("region %v did not shrink after throttling", r)
	}
}

func TestStreamAccessOutsideRegionNoPrefetch(t *testing.T) {
	s := NewStream(64)
	missAt(s, 100)
	missAt(s, 101)
	missAt(s, 102)
	if out := observe(s, Event{Block: 5000}); out != nil {
		t.Fatalf("access outside any region prefetched %v", out)
	}
}

func TestStreamLRUReplacement(t *testing.T) {
	s := NewStream(2)
	// Train two streams, then allocate a third; the least recently used
	// tracking entry is replaced.
	missAt(s, 100)
	missAt(s, 101)
	missAt(s, 102)
	missAt(s, 1000)
	missAt(s, 1001)
	missAt(s, 1002)
	if len(s.MonitorRegions()) != 2 {
		t.Fatalf("regions = %d, want 2", len(s.MonitorRegions()))
	}
	observe(s, Event{Block: 103}) // keep stream 1 recently used
	missAt(s, 5000)               // replaces stream 2
	if got := len(s.MonitorRegions()); got != 1 {
		t.Fatalf("regions after replacement = %d, want 1", got)
	}
	if out := observe(s, Event{Block: 104}); out == nil {
		t.Fatal("recently used stream was replaced instead of the LRU one")
	}
}

func TestStreamSetLevelClamps(t *testing.T) {
	s := NewStream(4)
	s.SetLevel(0)
	if s.Level() != 1 {
		t.Fatalf("level = %d, want clamp to 1", s.Level())
	}
	s.SetLevel(9)
	if s.Level() != 5 {
		t.Fatalf("level = %d, want clamp to 5", s.Level())
	}
}

func TestStreamMultipleConcurrentStreams(t *testing.T) {
	s := NewStream(64)
	s.SetLevel(3)
	// Interleave 8 streams; all must reach monitor state.
	bases := make([]uint64, 8)
	for i := range bases {
		bases[i] = uint64(i+1) * 10000
	}
	for step := uint64(0); step < 3; step++ {
		for _, b := range bases {
			missAt(s, b+step)
		}
	}
	if got := len(s.MonitorRegions()); got != 8 {
		t.Fatalf("monitor regions = %d, want 8", got)
	}
}

// TestStreamNeverPrefetchesBackwards: for an ascending stream every issued
// prefetch address is beyond the triggering access.
func TestStreamPrefetchesAhead(t *testing.T) {
	f := func(startRaw uint16, steps uint8) bool {
		start := uint64(startRaw) + 100
		s := NewStream(16)
		s.SetLevel(4)
		missAt(s, start)
		missAt(s, start+1)
		missAt(s, start+2)
		cur := start + 2
		for i := 0; i < int(steps%40); i++ {
			cur++
			for _, p := range observe(s, Event{Block: cur}) {
				if p <= cur {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelNames(t *testing.T) {
	if LevelName(1) != "Very Conservative" || LevelName(5) != "Very Aggressive" {
		t.Fatal("level names wrong")
	}
	if LevelName(0) == "" {
		t.Fatal("out-of-range level name empty")
	}
}

func TestStreamLevelsTable(t *testing.T) {
	// Table 1 of the paper.
	want := [][2]int{{4, 1}, {8, 1}, {16, 2}, {32, 4}, {64, 4}}
	for lvl := 1; lvl <= 5; lvl++ {
		s := StreamLevels[lvl]
		if s.Distance != want[lvl-1][0] || s.Degree != want[lvl-1][1] {
			t.Errorf("level %d = %+v, want %v", lvl, s, want[lvl-1])
		}
	}
}

// TestNewStreamAllocsIndependentOfEntries pins the tracker's layout: the
// entries and their match keys are one allocation each, whatever their
// number.
func TestNewStreamAllocsIndependentOfEntries(t *testing.T) {
	one := testing.AllocsPerRun(20, func() { NewStream(1) })
	many := testing.AllocsPerRun(20, func() { NewStream(64) })
	if one != many {
		t.Fatalf("NewStream allocates %v objects for 1 entry, %v for 64", one, many)
	}
}
