package sim

import "math/bits"

// maxWheelSize bounds the wheel so its occupancy bitmap is a fixed array
// (no allocation per hierarchy).
const maxWheelSize = 4096

// wheel is a fixed-horizon timing wheel used to schedule the hierarchy's
// short, fixed-latency completions (L1 hits, L2 hits, fill hand-offs).
// Long, variable latencies live inside the DRAM model, so the horizon
// stays small.
//
// Buckets are intrusive FIFO lists over the shared event pool — scheduling
// links a pooled node, so the per-event cost is two index writes and no
// heap allocation. Events beyond the horizon (delay > mask) spill into a
// sorted far-future list and are folded back into buckets as the wheel
// wraps toward their due cycle, instead of panicking as the seed engine
// did.
//
// An occupancy bitmap (bit b set while bucket b holds an event) and a
// count of bucketed events let nextEvent find the next busy cycle without
// walking the buckets, and answer for an empty wheel at once.
type wheel struct {
	pool    *eventPool
	buckets []evList
	mask    uint64
	now     uint64
	// far holds over-horizon events ordered by due cycle (ties keep
	// insertion order, preserving scheduling FIFO fairness).
	far []farEvent
	// run dispatches one fired event; set once by the owning hierarchy.
	run func(ev event)

	occ    [maxWheelSize / 64]uint64
	queued int // events in buckets (far excluded)
}

type farEvent struct {
	due uint64
	id  int32
}

func newWheel(size int, pool *eventPool) *wheel {
	if size&(size-1) != 0 || size <= 0 || size > maxWheelSize {
		panic("sim: wheel size must be a power of two in 1..4096")
	}
	w := &wheel{pool: pool, buckets: make([]evList, size), mask: uint64(size - 1)}
	for i := range w.buckets {
		w.buckets[i] = newEvList()
	}
	return w
}

// schedule fires the event node delay cycles from now; a delay of 0 is
// promoted to 1 (events never fire in the cycle that schedules them).
// Delays beyond the wheel horizon park in the far-future list.
func (w *wheel) schedule(delay uint64, id int32) {
	if delay == 0 {
		delay = 1
	}
	if delay > w.mask {
		w.scheduleFar(w.now+delay, id)
		return
	}
	w.push((w.now+delay)&w.mask, id)
}

// push appends the event to bucket slot, marking the bucket occupied.
func (w *wheel) push(slot uint64, id int32) {
	w.buckets[slot].push(w.pool, id)
	w.occ[slot>>6] |= 1 << (slot & 63)
	w.queued++
}

// scheduleFar inserts an over-horizon event keeping far sorted by due
// cycle; equal due cycles keep arrival order.
func (w *wheel) scheduleFar(due uint64, id int32) {
	w.far = append(w.far, farEvent{due: due, id: id})
	for i := len(w.far) - 1; i > 0 && w.far[i-1].due > due; i-- {
		w.far[i], w.far[i-1] = w.far[i-1], w.far[i]
	}
}

// tick advances to the given cycle: far-future events whose due cycle has
// rotated inside the horizon drop into their buckets, then the cycle's
// bucket drains in FIFO order. Dispatched callbacks may schedule new
// events (at a minimum delay of 1, so never into the chain being walked);
// each node is copied and released before dispatch, so the pool may even
// grow mid-drain without invalidating the walk.
func (w *wheel) tick(cycle uint64) {
	w.now = cycle
	for len(w.far) > 0 && w.far[0].due <= cycle+w.mask {
		fe := w.far[0]
		copy(w.far, w.far[1:])
		w.far = w.far[:len(w.far)-1]
		slot := fe.due & w.mask
		if fe.due <= cycle {
			// Defensive: an already-due event joins the current bucket,
			// which drains below in this same tick.
			slot = cycle & w.mask
		}
		w.push(slot, fe.id)
	}
	slot := cycle & w.mask
	if w.occ[slot>>6]&(1<<(slot&63)) == 0 {
		return
	}
	w.occ[slot>>6] &^= 1 << (slot & 63)
	id := w.buckets[slot].take()
	for id != nilEvent {
		ev := *w.pool.at(id)
		w.pool.release(id)
		w.queued--
		w.run(ev)
		id = ev.next
	}
}

// nextEvent returns the first cycle after now at which tick has work: the
// first occupied bucket, or the fold cycle of the earliest far event —
// due−mask, the tick that moves it into its bucket. ^uint64(0) means the
// wheel is empty. Until then every tick only advances now.
func (w *wheel) nextEvent() uint64 {
	next := ^uint64(0)
	if len(w.far) > 0 {
		next = w.far[0].due - w.mask
	}
	if w.queued == 0 {
		return next
	}
	// Bucket now&mask is always empty between ticks, so the scan from
	// now+1 meets every occupied bucket within one turn of the wheel.
	start := (w.now + 1) & w.mask
	words := uint64(len(w.buckets)+63) >> 6
	first := start >> 6
	for n := uint64(0); n <= words; n++ {
		i := (first + n) % words
		word := w.occ[i]
		if n == 0 {
			word &= ^uint64(0) << (start & 63)
		}
		if word != 0 {
			slot := i<<6 + uint64(bits.TrailingZeros64(word))
			return min(next, w.now+1+(slot-start)&w.mask)
		}
	}
	return next
}

// pendingFar returns the number of parked over-horizon events (tests).
func (w *wheel) pendingFar() int { return len(w.far) }
