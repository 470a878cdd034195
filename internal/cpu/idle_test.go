package cpu

import (
	"testing"

	"fdpsim/internal/stats"
)

// idleCore is a core driven into an idle state, with its cycle buckets
// when attribution is on.
type idleCore struct {
	c       *CPU
	buckets stats.CycleBuckets
}

// newIdleCore builds a core whose loads never complete, fetching through
// fetch when it is non-nil, and ticks it until it is Idle (halting it
// first when halt is set). backpressured feeds attribution's memBP.
func newIdleCore(t *testing.T, ops []MicroOp, rob int, fetch FetchFunc, halt, attr, backpressured bool) *idleCore {
	t.Helper()
	ic := &idleCore{}
	ic.c = New(Config{Width: 8, ROB: rob, LoadPorts: 4}, &scriptSource{ops: ops}, func(uint64, uint64, bool, int32, uint64) {})
	if fetch != nil {
		ic.c.SetFetch(fetch)
	}
	if attr {
		ic.c.SetAttribution(&ic.buckets, func() bool { return backpressured })
	}
	for i := 0; i < 4; i++ {
		ic.c.Tick()
	}
	if halt {
		ic.c.Halt()
		ic.c.Tick()
	}
	if !ic.c.Idle() {
		t.Fatalf("core not idle after set-up: count %d, ready %d", ic.c.count, ic.c.readyCount)
	}
	return ic
}

// TestSkipIdleEqualsTicking checks SkipIdle(k) against k calls to Tick on
// a ROB-full, a fetch-stalled and a halted core, with and without
// attribution: the stall counters, the retire count and every cycle
// bucket must agree, and both cores must still be Idle.
func TestSkipIdleEqualsTicking(t *testing.T) {
	load := MicroOp{Kind: Load, Addr: 64, PC: 0x1000}
	// The load's block is resident; the next instruction's is not, and
	// never arrives. A full ROB and a fetch stall never coincide: a stall
	// arms only while the ROB has room, and blocks its filling.
	fetch := func(pc uint64) bool { return pc>>6 == 0x1000>>6 }
	cases := []struct {
		name                string
		ops                 []MicroOp
		rob                 int
		fetch               FetchFunc
		halt, backpressured bool
		robFull, fetchStall bool // which counter the stretch must grow
	}{
		{name: "rob-full", ops: []MicroOp{load}, rob: 16, robFull: true},
		{name: "rob-full-ifetch", ops: []MicroOp{load, {PC: 0x1004}, {PC: 0x1008}, {PC: 0x100c}, {PC: 0x1010}, {PC: 0x1014}, {PC: 0x1018}, {PC: 0x101c}, {PC: 0x2000}},
			rob: 8, fetch: fetch, robFull: true},
		{name: "fetch-stalled-empty-rob", ops: []MicroOp{{PC: 0x2000}}, rob: 16, fetch: fetch, fetchStall: true},
		{name: "fetch-stalled-load-miss", ops: []MicroOp{load, {PC: 0x2000}}, rob: 16, fetch: fetch, fetchStall: true},
		{name: "fetch-stalled-backpressured", ops: []MicroOp{load, {PC: 0x2000}}, rob: 16, fetch: fetch, backpressured: true, fetchStall: true},
		{name: "halted", ops: []MicroOp{load}, rob: 16, halt: true},
	}
	const k = 37
	for _, tc := range cases {
		for _, attr := range []bool{false, true} {
			name := tc.name
			if attr {
				name += "/attr"
			}
			t.Run(name, func(t *testing.T) {
				skipped := newIdleCore(t, tc.ops, tc.rob, tc.fetch, tc.halt, attr, tc.backpressured)
				ticked := newIdleCore(t, tc.ops, tc.rob, tc.fetch, tc.halt, attr, tc.backpressured)
				rob0, fetch0, cycles0 := skipped.c.StallROBFull(), skipped.c.StallFetch(), skipped.buckets.Total()
				skipped.c.SkipIdle(k)
				for i := 0; i < k; i++ {
					ticked.c.Tick()
				}
				s, tk := skipped.c, ticked.c
				if s.StallROBFull() != tk.StallROBFull() || s.StallFetch() != tk.StallFetch() || s.Retired() != tk.Retired() {
					t.Errorf("SkipIdle(%d): ROB-full %d, fetch %d, retired %d; ticking: %d, %d, %d",
						k, s.StallROBFull(), s.StallFetch(), s.Retired(), tk.StallROBFull(), tk.StallFetch(), tk.Retired())
				}
				if grew := s.StallROBFull() - rob0; grew != 0 && !tc.robFull || grew != k && tc.robFull {
					t.Errorf("ROB-full stalls grew by %d", grew)
				}
				if grew := s.StallFetch() - fetch0; grew != 0 && !tc.fetchStall || grew != k && tc.fetchStall {
					t.Errorf("fetch stalls grew by %d", grew)
				}
				if skipped.buckets != ticked.buckets {
					t.Errorf("buckets after SkipIdle %+v, after ticking %+v", skipped.buckets, ticked.buckets)
				}
				if attr && skipped.buckets.Total() != cycles0+k {
					t.Errorf("buckets total %d, want %d cycles", skipped.buckets.Total(), cycles0+k)
				}
				if !s.Idle() || !tk.Idle() {
					t.Error("core left idleness")
				}
			})
		}
	}
}

// TestIdleBoundaries sets the state Idle reads directly and checks each
// condition at its edge: one ROB entry short of full, a ready load, a
// completed head, and the three ways dispatch blocks.
func TestIdleBoundaries(t *testing.T) {
	c := New(Config{Width: 8, ROB: 16, LoadPorts: 4}, &scriptSource{}, func(uint64, uint64, bool, int32, uint64) {})
	if c.Idle() {
		t.Fatal("a fresh core with room in its ROB is idle")
	}
	c.head, c.count = 3, 15 // the head is an incomplete load
	if c.Idle() {
		t.Fatal("a core one entry short of a full ROB is idle")
	}
	c.count = 16
	if !c.Idle() {
		t.Fatal("a full ROB behind an incomplete load is not idle")
	}
	c.rob[3].completed = true
	if c.Idle() {
		t.Fatal("a core whose head can retire is idle")
	}
	c.rob[3].completed = false
	c.pushReady(5)
	if c.Idle() {
		t.Fatal("a core with a load ready to issue is idle")
	}
	c.popReady()
	c.count = 15
	c.fetchStalled = true
	if !c.Idle() {
		t.Fatal("a fetch-stalled core is not idle")
	}
	c.fetchStalled = false
	c.Halt()
	if !c.Idle() {
		t.Fatal("a halted core is not idle")
	}
	c.count = 0
	if !c.Idle() {
		t.Fatal("a halted, empty core is not idle")
	}
}
