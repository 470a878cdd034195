package sim

import "testing"

// testWheel builds a wheel over a fresh pool whose fired events append
// their arg to the returned log.
func testWheel(size int) (*wheel, *[]uint64) {
	pool := newEventPool(16)
	w := newWheel(size, pool)
	log := &[]uint64{}
	w.run = func(ev event) { *log = append(*log, ev.arg) }
	return w, log
}

func TestWheelRunsAtScheduledCycle(t *testing.T) {
	w, log := testWheel(16)
	w.tick(0)
	w.schedule(3, w.pool.alloc(evFillL1, 0, 0, 3))
	w.tick(1)
	w.tick(2)
	if len(*log) != 0 {
		t.Fatal("event fired early")
	}
	w.tick(3)
	if len(*log) != 1 || (*log)[0] != 3 {
		t.Fatalf("fired %v, want [3] at cycle 3", *log)
	}
}

func TestWheelZeroDelayBecomesOne(t *testing.T) {
	w, log := testWheel(16)
	w.tick(5)
	w.schedule(0, w.pool.alloc(evFillL1, 0, 0, 1))
	w.tick(6)
	if len(*log) != 1 {
		t.Fatal("zero-delay event not coerced to next cycle")
	}
}

func TestWheelChainedScheduling(t *testing.T) {
	pool := newEventPool(16)
	w := newWheel(16, pool)
	var order []uint64
	w.run = func(ev event) {
		order = append(order, ev.arg)
		if ev.arg == 1 {
			w.schedule(2, pool.alloc(evFillL1, 0, 0, 2))
		}
	}
	w.tick(0)
	w.schedule(1, pool.alloc(evFillL1, 0, 0, 1))
	for c := uint64(1); c <= 4; c++ {
		w.tick(c)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestWheelFarFutureSpillsAndFires(t *testing.T) {
	// Delays beyond the horizon park in the far list (the seed engine
	// panicked here) and still fire exactly at their due cycle.
	w, log := testWheel(16)
	w.tick(0)
	w.schedule(100, w.pool.alloc(evFillL1, 0, 0, 100))
	w.schedule(40, w.pool.alloc(evFillL1, 0, 0, 40))
	if w.pendingFar() != 2 {
		t.Fatalf("far list holds %d, want 2", w.pendingFar())
	}
	for c := uint64(1); c <= 99; c++ {
		w.tick(c)
		switch {
		case c < 40 && len(*log) != 0:
			t.Fatalf("cycle %d: early fire %v", c, *log)
		case c >= 40 && (len(*log) != 1 || (*log)[0] != 40):
			t.Fatalf("cycle %d: log %v, want [40]", c, *log)
		}
	}
	w.tick(100)
	if len(*log) != 2 || (*log)[1] != 100 {
		t.Fatalf("log = %v, want [40 100]", *log)
	}
	if w.pendingFar() != 0 {
		t.Fatalf("far list not drained: %d", w.pendingFar())
	}
}

func TestWheelFarFutureKeepsFIFOOnEqualDue(t *testing.T) {
	w, log := testWheel(8)
	w.tick(0)
	for i := uint64(0); i < 5; i++ {
		w.schedule(50, w.pool.alloc(evFillL1, 0, 0, i))
	}
	for c := uint64(1); c <= 50; c++ {
		w.tick(c)
	}
	if len(*log) != 5 {
		t.Fatalf("fired %d of 5", len(*log))
	}
	for i, v := range *log {
		if v != uint64(i) {
			t.Fatalf("order = %v, want FIFO", *log)
		}
	}
}

func TestWheelSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two wheel did not panic")
		}
	}()
	newWheel(10, newEventPool(16))
}

func TestWheelManyEventsSameCycle(t *testing.T) {
	w, log := testWheel(8)
	w.tick(0)
	for i := 0; i < 100; i++ {
		w.schedule(2, w.pool.alloc(evFillL1, 0, 0, uint64(i)))
	}
	w.tick(1)
	w.tick(2)
	if len(*log) != 100 {
		t.Fatalf("fired %d of 100", len(*log))
	}
	// Bucket is cleared: wrapping around must not re-fire.
	for c := uint64(3); c < 20; c++ {
		w.tick(c)
	}
	if len(*log) != 100 {
		t.Fatalf("events re-fired after wrap: %d", len(*log))
	}
	// Every node went back to the pool: the free list covers the slab.
	if got, want := len(w.pool.free), len(w.pool.nodes); got != want {
		t.Fatalf("pool leak: %d free of %d nodes", got, want)
	}
}

func TestWheelNextEventEmpty(t *testing.T) {
	w, _ := testWheel(16)
	w.tick(7)
	if got := w.nextEvent(); got != ^uint64(0) {
		t.Fatalf("empty wheel: nextEvent = %d, want none", got)
	}
}

// TestWheelNextEventAcrossWrap schedules events whose buckets lie behind
// the current one in the ring: nextEvent must still name the earliest
// cycle, and each named cycle must fire.
func TestWheelNextEventAcrossWrap(t *testing.T) {
	w, log := testWheel(16)
	w.tick(12) // bucket 12; +3 and +9 land in buckets 15 and 5
	w.schedule(9, w.pool.alloc(evFillL1, 0, 0, 21))
	w.schedule(3, w.pool.alloc(evFillL1, 0, 0, 15))
	w.schedule(15, w.pool.alloc(evFillL1, 0, 0, 27)) // bucket 11, just behind now
	for _, want := range []uint64{15, 21, 27} {
		if got := w.nextEvent(); got != want {
			t.Fatalf("nextEvent = %d, want %d", got, want)
		}
		for c := w.now + 1; c < want; c++ {
			w.tick(c)
		}
		if len(*log) != 0 {
			t.Fatalf("fired %v before cycle %d", *log, want)
		}
		w.tick(want)
		if len(*log) != 1 || (*log)[0] != want {
			t.Fatalf("cycle %d fired %v", want, *log)
		}
		*log = (*log)[:0]
	}
	if got := w.nextEvent(); got != ^uint64(0) {
		t.Fatalf("drained wheel: nextEvent = %d", got)
	}
}

// TestWheelNextEventFarFoldCycle checks that a far event counts at its
// fold cycle, due−mask, when tick moves it into its bucket, and that a
// bucketed event earlier than that wins.
func TestWheelNextEventFarFoldCycle(t *testing.T) {
	w, log := testWheel(16)
	w.tick(0)
	w.schedule(100, w.pool.alloc(evFillL1, 0, 0, 100))
	if got, want := w.nextEvent(), uint64(100-15); got != want {
		t.Fatalf("nextEvent = %d, want the fold cycle %d", got, want)
	}
	w.schedule(4, w.pool.alloc(evFillL1, 0, 0, 4))
	if got := w.nextEvent(); got != 4 {
		t.Fatalf("nextEvent = %d, want the bucketed event at 4", got)
	}
	for c := uint64(1); c < 85; c++ {
		w.tick(c)
	}
	if w.pendingFar() != 1 || len(*log) != 1 {
		t.Fatalf("before the fold cycle: %d far, fired %v", w.pendingFar(), *log)
	}
	w.tick(85)
	if w.pendingFar() != 0 || w.queued != 1 {
		t.Fatalf("at the fold cycle: %d far, %d queued", w.pendingFar(), w.queued)
	}
	if got := w.nextEvent(); got != 100 {
		t.Fatalf("folded event: nextEvent = %d, want 100", got)
	}
}

// TestWheelQueuedCount checks the bucketed-event count through
// scheduling, a fold and the drains.
func TestWheelQueuedCount(t *testing.T) {
	w, _ := testWheel(8)
	w.tick(0)
	for i := 0; i < 3; i++ {
		w.schedule(2, w.pool.alloc(evFillL1, 0, 0, 2))
	}
	w.schedule(5, w.pool.alloc(evFillL1, 0, 0, 5))
	w.schedule(20, w.pool.alloc(evFillL1, 0, 0, 20))
	if w.queued != 4 {
		t.Fatalf("queued = %d after scheduling, want 4 (the far event excluded)", w.queued)
	}
	w.tick(1)
	w.tick(2)
	if w.queued != 1 {
		t.Fatalf("queued = %d after draining three, want 1", w.queued)
	}
	for c := uint64(3); c <= 13; c++ {
		w.tick(c)
	}
	if w.queued != 1 || w.pendingFar() != 0 {
		t.Fatalf("after the fold: queued %d, far %d, want 1 and 0", w.queued, w.pendingFar())
	}
	for c := uint64(14); c <= 20; c++ {
		w.tick(c)
	}
	if w.queued != 0 || w.nextEvent() != ^uint64(0) {
		t.Fatalf("drained: queued %d, nextEvent %d", w.queued, w.nextEvent())
	}
}
