package mem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fdpsim/internal/cache"
)

// drain ticks the model until quiet, returning the completion cycles seen.
func drain(d *DRAM, from, until uint64) {
	for c := from; c <= until && d.Busy(); c++ {
		d.Tick(c)
	}
}

func TestMinimumLatency(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var done uint64
	r := &Request{Block: 0, Kind: Demand, Done: func(r *Request) { done = r.Finished }}
	d.Enqueue(r, 10)
	drain(d, 10, 10000)
	// First access: row conflict; latency = Cmd + RowConflict + Transfer.
	want := 10 + cfg.CmdLatency + cfg.RowConflict + cfg.Transfer
	if done != want {
		t.Fatalf("first-access completion = %d, want %d", done, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var first, second uint64
	// Same bank, same row: the second access is a row hit.
	d.Enqueue(&Request{Block: 0, Kind: Demand, Done: func(r *Request) { first = r.Finished }}, 0)
	drain(d, 0, 20000)
	d.Enqueue(&Request{Block: 32, Kind: Demand, Done: func(r *Request) { second = r.Finished }}, first)
	drain(d, first, 20000)
	lat1 := first - 0
	lat2 := second - first
	if lat2 >= lat1 {
		t.Fatalf("row hit latency %d not faster than conflict %d", lat2, lat1)
	}
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("row stats: hits=%d misses=%d", st.RowHits, st.RowMisses)
	}
}

func TestBankConflictSerializes(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var t1, t2 uint64
	// Two requests to the same bank but different rows: the second must
	// wait for the bank's conflict occupancy.
	blockA := uint64(0)
	blockB := uint64(cfg.Banks * cfg.BlocksPerRow) // same bank, next row
	d.Enqueue(&Request{Block: blockA, Kind: Demand, Done: func(r *Request) { t1 = r.Started }}, 0)
	d.Enqueue(&Request{Block: blockB, Kind: Demand, Done: func(r *Request) { t2 = r.Started }}, 0)
	drain(d, 0, 30000)
	if t2 < t1+cfg.BusyConflict {
		t.Fatalf("second start %d < first %d + busy %d", t2, t1, cfg.BusyConflict)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var starts []uint64
	for b := uint64(0); b < 4; b++ {
		d.Enqueue(&Request{Block: b, Kind: Demand, Done: func(r *Request) {
			starts = append(starts, r.Started)
		}}, 0)
	}
	drain(d, 0, 30000)
	if len(starts) != 4 {
		t.Fatalf("completed %d of 4", len(starts))
	}
	// One command per cycle: starts are consecutive-ish, far less than
	// serialized bank occupancy.
	for _, s := range starts {
		if s > uint64(cfg.CmdLatency)+10 {
			t.Fatalf("start %d indicates serialization across banks", s)
		}
	}
}

func TestBandwidthEnforced(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	const n = 20
	var last uint64
	for b := uint64(0); b < n; b++ {
		d.Enqueue(&Request{Block: b, Kind: Demand, Done: func(r *Request) {
			if r.Finished > last {
				last = r.Finished
			}
		}}, 0)
	}
	drain(d, 0, 100000)
	// n transfers cannot complete faster than n * Transfer cycles.
	if minSpan := uint64(n) * cfg.Transfer; last < minSpan {
		t.Fatalf("%d blocks done by cycle %d, violating the %d-cycle bus floor", n, last, minSpan)
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var prefStart, demandStart uint64
	// Enqueue a stack of prefetches first, then a demand; the demand must
	// start before the queued prefetches despite arriving later.
	for b := uint64(0); b < 8; b++ {
		blk := b
		d.Enqueue(&Request{Block: blk, Kind: Prefetch, Done: func(r *Request) {
			if r.Block == 7 {
				prefStart = r.Started
			}
		}}, 0)
	}
	d.Enqueue(&Request{Block: 100, Kind: Demand, Done: func(r *Request) { demandStart = r.Started }}, 1)
	drain(d, 0, 100000)
	if demandStart > prefStart {
		t.Fatalf("demand started at %d after last prefetch %d", demandStart, prefStart)
	}
}

func TestQueueCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = 4
	d := New(cfg)
	for b := uint64(0); b < 4; b++ {
		if !d.Enqueue(&Request{Block: b, Kind: Prefetch}, 0) {
			t.Fatalf("enqueue %d rejected below capacity", b)
		}
	}
	if d.CanEnqueue(Prefetch) {
		t.Fatal("CanEnqueue true at capacity")
	}
	if d.Enqueue(&Request{Block: 99, Kind: Prefetch}, 0) {
		t.Fatal("enqueue accepted over capacity")
	}
	if d.Stats().Dropped[Prefetch] != 1 {
		t.Fatalf("dropped = %d, want 1", d.Stats().Dropped[Prefetch])
	}
	if !d.CanEnqueue(Demand) {
		t.Fatal("demand queue affected by prefetch queue fill")
	}
}

func TestPromote(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	r := &Request{Block: 5, Kind: Prefetch, WasPrefetch: true}
	d.Enqueue(r, 0)
	if !d.Promote(5) {
		t.Fatal("Promote missed queued prefetch")
	}
	if d.QueueLen(Prefetch) != 0 || d.QueueLen(Demand) != 1 {
		t.Fatal("Promote did not move the request between queues")
	}
	if r.Kind != Demand || !r.WasPrefetch {
		t.Fatalf("promoted request state: %+v", r)
	}
	if d.Promote(5) {
		t.Fatal("second Promote found the request again")
	}
}

func TestWritebackBackpressurePromotion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = 8
	d := New(cfg)
	// More than half the queue in writebacks flips the scheduling order so
	// writebacks drain ahead of prefetches.
	for b := uint64(0); b < 5; b++ {
		d.Enqueue(&Request{Block: b, Kind: Writeback}, 0)
	}
	var prefStarted uint64
	d.Enqueue(&Request{Block: 100, Kind: Prefetch, Done: func(r *Request) { prefStarted = r.Started }}, 0)
	wbStarts := 0
	d.OnStart = func(r *Request) {
		if r.Kind == Writeback && prefStarted == 0 {
			wbStarts++
		}
	}
	drain(d, 0, 100000)
	if wbStarts < 2 {
		t.Fatalf("only %d writebacks started before the prefetch", wbStarts)
	}
}

func TestOnStartFires(t *testing.T) {
	d := New(DefaultConfig())
	var kinds []Kind
	d.OnStart = func(r *Request) { kinds = append(kinds, r.Kind) }
	d.Enqueue(&Request{Block: 1, Kind: Demand}, 0)
	d.Enqueue(&Request{Block: 2, Kind: Writeback}, 0)
	drain(d, 0, 10000)
	if len(kinds) != 2 || kinds[0] != Demand || kinds[1] != Writeback {
		t.Fatalf("OnStart kinds = %v", kinds)
	}
	st := d.Stats()
	if st.Started[Demand] != 1 || st.Started[Writeback] != 1 {
		t.Fatalf("started stats = %v", st.Started)
	}
}

func TestKindString(t *testing.T) {
	if Demand.String() != "demand" || Prefetch.String() != "prefetch" || Writeback.String() != "writeback" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Banks: 3, BlocksPerRow: 128},
		{Banks: 32, BlocksPerRow: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

// TestFIFOWithinPriority: demands complete in enqueue order when they hit
// distinct banks (FCFS with bank bypass must not reorder independents that
// are all startable).
func TestFIFOWithinPriority(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 2
		d := New(DefaultConfig())
		var order []uint64
		for b := 0; b < n; b++ {
			d.Enqueue(&Request{Block: uint64(b), Kind: Demand, Done: func(r *Request) {
				order = append(order, r.Block)
			}}, 0)
		}
		drain(d, 0, 1_000_000)
		if len(order) != n {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyAccounting: demand latency statistics accumulate.
func TestLatencyAccounting(t *testing.T) {
	d := New(DefaultConfig())
	d.Enqueue(&Request{Block: 1, Kind: Demand}, 0)
	d.Enqueue(&Request{Block: 2, Kind: Prefetch}, 0)
	drain(d, 0, 10000)
	st := d.Stats()
	if st.DemandCount != 1 || st.DemandLatencySum == 0 {
		t.Fatalf("latency stats: count=%d sum=%d", st.DemandCount, st.DemandLatencySum)
	}
}

// TestNextEventBoundsQuietTicks drives a DRAM with queued and in-flight
// requests of every kind (bank conflicts, row hits, a late arrival)
// cycle by cycle: every Tick before NextEvent() must leave Stats alone
// and fire no OnStart and no Done, and the requests must all complete.
func TestNextEventBoundsQuietTicks(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var events, completed int
	d.OnStart = func(*Request) { events++ }
	done := func(*Request) { events++; completed++ }
	sameBank := uint64(cfg.Banks * cfg.BlocksPerRow)
	reqs := []*Request{
		{Block: 0, Kind: Demand, Done: done},
		{Block: sameBank, Kind: Demand, Done: done}, // bank conflict
		{Block: 32, Kind: Demand, Done: done},       // row hit after the first
		{Block: 1, Kind: Prefetch, Done: done},
		{Block: 2, Kind: Writeback},
	}
	for _, r := range reqs {
		d.Enqueue(r, 0)
	}
	late := &Request{Block: 3, Kind: Demand, Done: done}
	var cycle, quiet uint64
	for d.Busy() || late.Enqueued == 0 {
		next := d.NextEvent()
		for c := cycle + 1; c < next && c < 100_000; c++ {
			st, n := d.Stats(), events
			d.Tick(c)
			if d.Stats() != st || events != n {
				t.Fatalf("cycle %d before NextEvent %d: stats %+v -> %+v, events %d -> %d", c, next, st, d.Stats(), n, events)
			}
			quiet++
		}
		cycle = max(next, cycle+1)
		if cycle >= 100_000 {
			t.Fatal("the DRAM never drained")
		}
		d.Tick(cycle)
		if cycle >= 700 && late.Enqueued == 0 {
			d.Enqueue(late, cycle)
			if late.Enqueued == 0 {
				t.Fatal("late request stamped at cycle 0")
			}
		}
	}
	if completed != 5 {
		t.Fatalf("%d reads completed, want 5", completed)
	}
	if quiet < 1000 {
		t.Fatalf("only %d quiet cycles; the check is vacuous", quiet)
	}
	if d.NextEvent() != ^uint64(0) {
		t.Fatalf("drained DRAM's NextEvent = %d", d.NextEvent())
	}
}

// TestNextEventTickNowAfterQueueChange checks that NextEvent answers 0
// ("tick now") right after anything that invalidates the scheduler's
// memo while a queue holds work: a start, an Enqueue and a Promote.
func TestNextEventTickNowAfterQueueChange(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	started := false
	d.OnStart = func(*Request) { started = true }
	d.Enqueue(&Request{Block: 0, Kind: Demand}, 0)
	d.Enqueue(&Request{Block: 1, Kind: Prefetch}, 0)
	if got := d.NextEvent(); got != 0 {
		t.Fatalf("after Enqueue: NextEvent = %d, want 0", got)
	}
	d.Tick(1) // nothing is past its command latency yet
	if got, want := d.NextEvent(), cfg.CmdLatency; got != want {
		t.Fatalf("after a failed scan: NextEvent = %d, want %d", got, want)
	}
	d.Promote(1)
	if got := d.NextEvent(); got != 0 {
		t.Fatalf("after Promote: NextEvent = %d, want 0", got)
	}
	d.Tick(2)
	d.Enqueue(&Request{Block: 2, Kind: Writeback}, 2)
	if got := d.NextEvent(); got != 0 {
		t.Fatalf("after Enqueue behind a memo: NextEvent = %d, want 0", got)
	}
	for c := uint64(3); !started; c++ {
		d.Tick(c)
	}
	if got := d.NextEvent(); got != 0 {
		t.Fatalf("after a start with work queued: NextEvent = %d, want 0", got)
	}
}

// TestCompletionsFireInStartOrder drives a seeded random mix of demand,
// prefetch and writeback requests, with promotions, through the DRAM:
// every started request must finish strictly after the one started
// before it, and Done must fire in start order, at the finish cycle.
func TestCompletionsFireInStartOrder(t *testing.T) {
	fast := DefaultConfig()
	fast.Transfer = 1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"transfer=1", fast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(tc.cfg)
			rng := rand.New(rand.NewSource(17))
			started := map[*Request]int{} // in flight: start sequence number
			var lastFinished uint64
			nStarted, nDone := 0, 0
			var cycle uint64
			d.OnStart = func(r *Request) {
				if nStarted > 0 && r.Finished <= lastFinished {
					t.Fatalf("start %d finishes at %d, not after the previous start's %d", nStarted, r.Finished, lastFinished)
				}
				lastFinished = r.Finished
				started[r] = nStarted
				nStarted++
			}
			done := func(r *Request) {
				seq, ok := started[r]
				if !ok || seq != nDone {
					t.Fatalf("Done fired for start %d (known %v), want start %d", seq, ok, nDone)
				}
				if r.Finished != cycle {
					t.Fatalf("start %d fired at cycle %d, finished %d", seq, cycle, r.Finished)
				}
				delete(started, r)
				nDone++
			}
			var prefetches []cache.Addr
			promoted := 0
			for cycle = 0; cycle < 200_000; cycle++ {
				if rng.Intn(8) == 0 {
					r := d.Acquire()
					r.Block = cache.Addr(rng.Intn(1 << 16))
					r.Kind = Kind(rng.Intn(int(numKinds)))
					r.Done = done // writebacks too, to observe their order
					if d.Enqueue(r, cycle) && r.Kind == Prefetch {
						prefetches = append(prefetches, r.Block)
					}
				}
				if len(prefetches) > 0 && rng.Intn(16) == 0 {
					i := rng.Intn(len(prefetches))
					if d.Promote(prefetches[i]) {
						promoted++
					}
					prefetches = append(prefetches[:i], prefetches[i+1:]...)
				}
				d.Tick(cycle)
			}
			for ; d.Busy(); cycle++ {
				d.Tick(cycle)
			}
			st := d.Stats()
			if nStarted < 1000 || promoted == 0 || nDone != nStarted || st.Started[Demand]+st.Started[Prefetch]+st.Started[Writeback] != uint64(nStarted) {
				t.Fatalf("started %d, promoted %d, done %d, stats %v", nStarted, promoted, nDone, st.Started)
			}
			t.Logf("started %d (by kind %v), promoted %d", nStarted, st.Started, promoted)
		})
	}
}

// TestTiedCompletionsFireInStartOrder: with Transfer = 0, requests whose
// transfers end in the same cycle fire Done in the order they started.
func TestTiedCompletionsFireInStartOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transfer = 0
	d := New(cfg)
	// Open row 0 in banks 1 and 2.
	d.Enqueue(&Request{Block: 1, Kind: Demand}, 0)
	d.Enqueue(&Request{Block: 2, Kind: Demand}, 0)
	drain(d, 0, 10000)
	// A (bank 0) conflicts and starts first; B and C (banks 1 and 2) hit
	// their open rows a cycle apart after it, so all three transfers end
	// when A's does.
	var fired []string
	var at []uint64
	for _, req := range []struct {
		name  string
		block cache.Addr
	}{{"A", 0}, {"B", 1 + 32}, {"C", 2 + 32}} {
		name := req.name
		d.Enqueue(&Request{Block: req.block, Kind: Demand, Done: func(r *Request) {
			fired = append(fired, name)
			at = append(at, r.Finished)
		}}, 20000)
	}
	drain(d, 20000, 40000)
	if len(at) != 3 || at[0] != at[1] || at[1] != at[2] {
		t.Fatalf("finish cycles %v, want three equal", at)
	}
	if got := strings.Join(fired, ""); got != "ABC" {
		t.Fatalf("tied completions fired %s, want start order ABC", got)
	}
}
