// Package mem models the off-chip memory system of the baseline processor
// (Table 3 of the paper): a split-transaction memory bus with enforced
// bandwidth, 32 DRAM banks with open-row buffers and bank-conflict timing,
// bounded request queues, and demand-first scheduling in which prefetch
// requests are given the lowest priority so they do not delay demand
// load/store requests.
package mem

import "fdpsim/internal/cache"

// Kind classifies a bus request.
type Kind int

// Request kinds in descending scheduling priority (writebacks drain last
// unless their queue backs up).
const (
	Demand Kind = iota
	Prefetch
	Writeback
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Demand:
		return "demand"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	}
	return "unknown"
}

// Request is one memory transaction for a single cache block.
type Request struct {
	Block cache.Addr
	Kind  Kind
	// Owner identifies the requesting core when several cores share the
	// bus (multi-core mode); 0 otherwise.
	Owner int
	// WasPrefetch stays true across a late-prefetch promotion to demand
	// priority, so the bus-level prefetch accounting survives promotion.
	WasPrefetch bool
	Done        func(r *Request) // called when data is on-chip; nil for writebacks
	Enqueued    uint64
	Started     uint64 // cycle the request won the command bus
	Finished    uint64 // cycle the data transfer completed
	bank        int
	row         uint64
	// pooled marks requests drawn from the DRAM's free list via Acquire;
	// only those are recycled, so caller-constructed &Request{} values
	// (tests, external drivers) are never reused behind the caller's back.
	pooled bool
}

// Latency returns end-to-end cycles from enqueue to completion.
func (r *Request) Latency() uint64 { return r.Finished - r.Enqueued }

// Config holds the DRAM and bus timing parameters. The defaults reproduce
// the paper's 500-cycle minimum main-memory latency and 4.5 GB/s bus at a
// 4 GHz core clock (64 B / 4.5 GB/s ≈ 57 core cycles of data-bus occupancy
// per block).
type Config struct {
	Banks        int    // number of DRAM banks (power of two)
	BlocksPerRow int    // row-buffer size in cache blocks (power of two)
	CmdLatency   uint64 // fixed command/decode latency before the bank access
	RowHit       uint64 // access latency when the open row matches
	RowConflict  uint64 // access latency on a row-buffer conflict
	// BusyHit/BusyConflict are how long the access occupies the bank
	// (blocking other requests to it) — much shorter than the end-to-end
	// latency, which includes command and wire time.
	BusyHit      uint64
	BusyConflict uint64
	Transfer     uint64 // data-bus occupancy per block (bandwidth limit)
	QueueCap     int    // per-kind request queue capacity
	ScanWindow   int    // how deep the scheduler looks past the queue head
}

// DefaultConfig returns the Table 3 baseline memory system.
func DefaultConfig() Config {
	return Config{
		Banks:        32,
		BlocksPerRow: 128, // 8 KB rows of 64 B blocks
		CmdLatency:   36,
		RowHit:       397, // 36+397+57 = 490 + L2 lookup ≈ 500-cycle minimum
		RowConflict:  517,
		BusyHit:      24,  // a CAS burst
		BusyConflict: 160, // precharge + activate (tRC at 4 GHz)
		Transfer:     57,  // 64 B at 4.5 GB/s on a 4 GHz clock
		QueueCap:     128,
		ScanWindow:   16,
	}
}

type bank struct {
	freeAt  uint64
	openRow uint64
	hasOpen bool
}

// Stats counts bus-level activity.
type Stats struct {
	Started   [3]uint64 // requests that won the bus, by kind
	Dropped   [3]uint64 // enqueue rejections (queue full), by kind
	RowHits   uint64
	RowMisses uint64
	// LatencySum/LatencyCount give average demand latency.
	DemandLatencySum uint64
	DemandCount      uint64
}

// DRAM is the memory-system model. The owner enqueues requests and calls
// Tick once per core cycle; completions fire the request's Done callback.
type DRAM struct {
	cfg       Config
	bankMask  uint64
	bankShift uint
	rowShift  uint
	banks     []bank
	queues    [numKinds][]*Request
	busFreeAt uint64
	// pending[head:] holds the started requests in start order, which is
	// finish order (see start), so completions drain from its head.
	pending []*Request
	head    int
	// OnStart fires when a request wins the command bus — the paper's
	// "goes out on the bus" moment used to count sent prefetches.
	OnStart func(r *Request)
	stats   Stats
	// freeReqs recycles completed pooled requests (see Acquire).
	freeReqs []*Request
	// nextSchedule memoizes a failed scheduler scan: no queued request can
	// win the command bus before this cycle, so Tick skips the scan
	// entirely until then. Any queue mutation (enqueue, promote, start)
	// resets it to zero, forcing a real scan. Purely an optimization — the
	// skipped scans are exactly the ones schedule proves would fail.
	nextSchedule uint64
}

// New constructs a DRAM model from the configuration.
func New(cfg Config) *DRAM {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic("mem: bank count must be a positive power of two")
	}
	if cfg.BlocksPerRow <= 0 || cfg.BlocksPerRow&(cfg.BlocksPerRow-1) != 0 {
		panic("mem: blocks per row must be a positive power of two")
	}
	d := &DRAM{cfg: cfg, banks: make([]bank, cfg.Banks)}
	d.bankMask = uint64(cfg.Banks - 1)
	for v := cfg.Banks; v > 1; v >>= 1 {
		d.bankShift++
	}
	for v := cfg.BlocksPerRow; v > 1; v >>= 1 {
		d.rowShift++
	}
	if cfg.ScanWindow <= 0 {
		d.cfg.ScanWindow = 1
	}
	// Pre-size every request-holding structure to its working depth so the
	// simulation loop never grows them: the queues to their cap, the
	// completion FIFO to a generous transfer backlog, and the request pool
	// to the worst-case in-flight population (all queues full plus the
	// backlog) — after which Acquire/release recycle without allocating.
	for k := range d.queues {
		d.queues[k] = make([]*Request, 0, d.cfg.QueueCap)
	}
	d.pending = make([]*Request, 0, 64)
	d.freeReqs = make([]*Request, 0, 3*d.cfg.QueueCap+64)
	for i := 0; i < cap(d.freeReqs); i++ {
		d.freeReqs = append(d.freeReqs, &Request{pooled: true})
	}
	return d
}

// Config returns the timing configuration in use.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of bus-level statistics.
func (d *DRAM) Stats() Stats { return d.stats }

// QueueLen returns the occupancy of the queue for the given kind.
func (d *DRAM) QueueLen(k Kind) int { return len(d.queues[k]) }

// CanEnqueue reports whether a request of the given kind would be accepted.
func (d *DRAM) CanEnqueue(k Kind) bool { return len(d.queues[k]) < d.cfg.QueueCap }

// Acquire returns a zeroed Request from the DRAM's internal free list.
// Pooled requests are recycled automatically: after Done returns on
// completion (for writebacks, after the transfer finishes), or when
// Enqueue rejects them — in both cases the caller must not retain the
// pointer. Requests constructed directly with &Request{} are untouched by
// the pool and remain owned by their creator.
func (d *DRAM) Acquire() *Request {
	if n := len(d.freeReqs); n > 0 {
		r := d.freeReqs[n-1]
		d.freeReqs = d.freeReqs[:n-1]
		*r = Request{pooled: true}
		return r
	}
	return &Request{pooled: true}
}

// release returns a pooled request to the free list; a no-op for
// caller-constructed requests.
func (d *DRAM) release(r *Request) {
	if r.pooled {
		d.freeReqs = append(d.freeReqs, r)
	}
}

// Enqueue admits a request into its priority queue, stamping arrival at the
// given cycle. It returns false (and drops the request) when the queue is
// full; callers decide whether to retry. A rejected pooled request goes
// straight back to the free list, so it must not be re-submitted.
func (d *DRAM) Enqueue(r *Request, cycle uint64) bool {
	if len(d.queues[r.Kind]) >= d.cfg.QueueCap {
		d.stats.Dropped[r.Kind]++
		d.release(r)
		return false
	}
	r.Enqueued = cycle
	r.bank = int(r.Block & d.bankMask)
	r.row = (r.Block >> d.bankShift) >> d.rowShift
	d.queues[r.Kind] = append(d.queues[r.Kind], r)
	d.nextSchedule = 0 // new work invalidates the memoized scan
	return true
}

// Promote upgrades an in-queue prefetch for the block to demand priority,
// reporting whether the request was found (it may already have started).
func (d *DRAM) Promote(block cache.Addr) bool {
	q := d.queues[Prefetch]
	for i, r := range q {
		if r.Block == block {
			d.queues[Prefetch] = append(q[:i], q[i+1:]...)
			r.Kind = Demand
			d.queues[Demand] = append(d.queues[Demand], r)
			d.nextSchedule = 0 // the scan order changed
			return true
		}
	}
	return false
}

// Busy reports whether any request is queued or in flight.
func (d *DRAM) Busy() bool { return d.inFlight() || d.queued() }

// inFlight reports whether any started request has yet to complete.
func (d *DRAM) inFlight() bool { return d.head < len(d.pending) }

// queued reports whether any request waits in a queue.
func (d *DRAM) queued() bool {
	return len(d.queues[Demand]) > 0 || len(d.queues[Prefetch]) > 0 || len(d.queues[Writeback]) > 0
}

// NextEvent returns the first cycle at which Tick may change any state:
// the earliest pending completion, or, while a queue holds work, the
// memoized cycle before which no queued request can win the command bus
// — 0 ("tick now") when no scan has bounded it since the queues last
// changed. ^uint64(0) means nothing is queued or in flight. Between now
// and then, absent an Enqueue or Promote, every Tick is a no-op.
func (d *DRAM) NextEvent() uint64 {
	next := ^uint64(0)
	if d.inFlight() {
		next = d.pending[d.head].Finished
	}
	if d.queued() {
		next = min(next, d.nextSchedule)
	}
	return next
}

// Tick advances the model to the given cycle: it starts at most one new
// bank access (command-bus limit) and fires Done, in start order, for
// every transfer that has completed by this cycle.
func (d *DRAM) Tick(cycle uint64) {
	d.schedule(cycle)
	for d.inFlight() && d.pending[d.head].Finished <= cycle {
		r := d.pending[d.head]
		d.pending[d.head] = nil
		d.head++
		if r.Kind == Demand {
			d.stats.DemandLatencySum += r.Latency()
			d.stats.DemandCount++
		}
		if r.Done != nil {
			r.Done(r)
		}
		d.release(r)
	}
	if !d.inFlight() {
		d.pending, d.head = d.pending[:0], 0
	}
}

// order decides the scan order of the queues. Writebacks normally drain
// last, but once their queue is more than half full they are promoted ahead
// of prefetches so stores cannot back up indefinitely.
func (d *DRAM) order() [numKinds]Kind {
	if len(d.queues[Writeback]) > d.cfg.QueueCap/2 {
		return [numKinds]Kind{Demand, Writeback, Prefetch}
	}
	return [numKinds]Kind{Demand, Prefetch, Writeback}
}

func (d *DRAM) schedule(cycle uint64) {
	if cycle < d.nextSchedule {
		return // a prior scan proved nothing can start before nextSchedule
	}
	// earliest accumulates the soonest cycle any scanned entry could win
	// the bus. Within a queue arrivals are FIFO, so once entry j is not yet
	// past its command latency no later entry is either, and the break is
	// sound both for this scan and for the memoized lower bound.
	earliest := ^uint64(0)
	for _, k := range d.order() {
		q := d.queues[k]
		window := d.cfg.ScanWindow
		if window > len(q) {
			window = len(q)
		}
		for i := 0; i < window; i++ {
			r := q[i]
			if ready := r.Enqueued + d.cfg.CmdLatency; ready > cycle {
				if ready < earliest {
					earliest = ready
				}
				break // FIFO within a queue: later entries arrived later
			}
			b := &d.banks[r.bank]
			if b.freeAt > cycle {
				if b.freeAt < earliest {
					earliest = b.freeAt
				}
				continue
			}
			d.start(r, cycle)
			d.queues[k] = append(q[:i], q[i+1:]...)
			d.nextSchedule = 0 // the queue changed; rescan next cycle
			return             // one command per cycle
		}
	}
	d.nextSchedule = earliest
}

// start puts r on the bus at cycle. Its transfer begins once both its bank
// access and the data bus are done, and then holds the bus, so
//
//	Finished = max(cycle+latency, busFreeAt) + Transfer;  busFreeAt = Finished
//
// and every started request finishes no earlier than the one started
// before it — strictly later when Transfer ≥ 1. Start order is therefore
// finish order, and pending needs no sorting: r joins its tail.
func (d *DRAM) start(r *Request, cycle uint64) {
	b := &d.banks[r.bank]
	latency, busy := d.cfg.RowConflict, d.cfg.BusyConflict
	if b.hasOpen && b.openRow == r.row {
		latency, busy = d.cfg.RowHit, d.cfg.BusyHit
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
	}
	b.openRow = r.row
	b.hasOpen = true
	b.freeAt = cycle + busy
	xferStart := cycle + latency
	if d.busFreeAt > xferStart {
		xferStart = d.busFreeAt
	}
	d.busFreeAt = xferStart + d.cfg.Transfer
	r.Started = cycle
	r.Finished = xferStart + d.cfg.Transfer
	d.stats.Started[r.Kind]++
	if d.OnStart != nil {
		d.OnStart(r)
	}
	if len(d.pending) == cap(d.pending) && 2*d.head >= len(d.pending) {
		// At least half the slice has drained: slide the in-flight tail to
		// the front rather than grow, so each push moves at most one entry
		// on average.
		n := copy(d.pending, d.pending[d.head:])
		clear(d.pending[n:])
		d.pending, d.head = d.pending[:n], 0
	}
	d.pending = append(d.pending, r)
}
