// Package cpu models the out-of-order execution core of the baseline
// processor (Table 3): 8-wide dispatch and retire, a 128-entry reorder
// buffer, a limited number of data-cache ports, loads that block
// retirement until their data returns, and dependent loads that cannot
// issue until their producer completes. Non-memory work is assumed fully
// pipelined, so performance is governed — as in the paper — by the memory
// behaviour of the instruction stream: independent misses overlap up to
// the ROB/MSHR limits, dependent misses serialize.
package cpu

import "fdpsim/internal/stats"

// Kind classifies a micro-op.
type Kind uint8

// Micro-op kinds.
const (
	Nop Kind = iota
	Load
	Store
)

// MicroOp is one instruction as seen by the timing model.
type MicroOp struct {
	Kind Kind
	Addr uint64 // byte address, for loads and stores
	PC   uint64 // program counter, used by the PC-indexed prefetchers
	// Dep, when positive, makes this op's issue wait for the Dep-th most
	// recent load (1 = immediately preceding load) to complete — the
	// mechanism workloads use to express pointer-chasing dependence.
	Dep int
}

// Source supplies an unbounded micro-op stream.
type Source interface {
	Name() string
	Next() MicroOp
}

// MemFunc submits a memory access to the hierarchy. Loads carry their ROB
// index (robIdx >= 0) and load sequence number; the hierarchy answers by
// calling CompleteLoad(robIdx, seq) when the data is available — never
// synchronously. Stores pass robIdx < 0 and expect no completion.
type MemFunc func(addr, pc uint64, store bool, robIdx int32, seq uint64)

// FetchFunc asks the hierarchy for the instruction block containing pc.
// It returns true when the block is immediately available (an L1I hit —
// fetch is pipelined, so no stall); on a miss it returns false and the
// hierarchy calls CompleteFetch when the block arrives, at which point
// dispatch resumes.
type FetchFunc func(pc uint64) bool

// Config sizes the core.
type Config struct {
	Width     int // dispatch/retire width (8)
	ROB       int // reorder buffer entries (128)
	LoadPorts int // L1D load accesses per cycle (4)
}

// DefaultConfig returns the Table 3 core.
func DefaultConfig() Config { return Config{Width: 8, ROB: 128, LoadPorts: 4} }

type robEntry struct {
	kind      Kind
	addr      uint64
	pc        uint64
	completed bool
	loadSeq   uint64 // this entry's load number, when kind == Load
}

// loadSlot tracks one recent load so its dependents can resolve. Slots
// are recycled by sequence number: a slot holding a different sequence
// number than the one queried refers to a load so old it must have
// completed. The ring is at least as large as the ROB, so a load's slot is
// only reused once the load has retired.
//
// Waiters blocked on a load form an intrusive FIFO list threaded through
// ROB indices: waiterHead/waiterTail per slot, waiterNext per ROB entry
// (-1 terminated). A ROB entry waits on at most one producer, so one link
// per entry suffices — and, unlike per-slot slices, the lists never
// allocate as random dependence patterns walk the ring.
type loadSlot struct {
	seq                    uint64
	waiterHead, waiterTail int32
	done                   bool
}

// minLoadRing is the smallest load ring, in slots.
const minLoadRing = 4096

// CPU is the core timing model. Tick once per cycle.
type CPU struct {
	cfg Config
	src Source
	mem MemFunc

	rob        []robEntry
	head, tail int
	count      int

	loadsDispatched uint64
	// ring has a power-of-two length, at least max(ROB, minLoadRing);
	// load seq lives in ring[seq&ringMask].
	ring       []loadSlot
	ringMask   uint64
	waiterNext []int32

	// readyQ holds ROB indices of loads ready to issue, in a fixed ring:
	// at most one queue entry per ROB slot, so ROB-many slots suffice.
	readyQ     []int32
	readyHead  int
	readyCount int

	retired       uint64
	retiredLoads  uint64
	retiredStores uint64
	dispatched    uint64
	halted        bool

	// stallROBFull counts cycles dispatch made no progress with a full ROB.
	stallROBFull uint64

	// Instruction-fetch state (active when fetch is non-nil): ops dispatch
	// from the block at curFetchBlock; crossing into an uncached block
	// stalls dispatch until the hierarchy delivers it. Ops without an
	// explicit PC fetch sequentially after the previous instruction.
	fetch          FetchFunc
	pendingOp      MicroOp
	havePending    bool
	nextPC         uint64
	curFetchBlock  uint64
	fetchStalled   bool
	stallFetch     uint64 // cycles dispatch was blocked on instruction fetch
	fetchMissCount uint64

	// Attribution (optional): when attr is non-nil, every Tick classifies
	// the cycle into exactly one CycleBuckets field. memBP reports whether
	// the memory system is backpressured (demand requests queued behind a
	// full MSHR file), splitting load-miss stalls by bottleneck.
	attr  *stats.CycleBuckets
	memBP func() bool
}

// New builds a core over the given micro-op source and memory interface.
func New(cfg Config, src Source, mem MemFunc) *CPU {
	if cfg.Width <= 0 {
		cfg.Width = 8
	}
	if cfg.ROB <= 0 {
		cfg.ROB = 128
	}
	if cfg.LoadPorts <= 0 {
		cfg.LoadPorts = 4
	}
	qcap := 1
	for qcap < cfg.ROB {
		qcap <<= 1
	}
	rcap := max(qcap, minLoadRing)
	c := &CPU{cfg: cfg, src: src, mem: mem,
		rob: make([]robEntry, cfg.ROB), readyQ: make([]int32, qcap),
		ring: make([]loadSlot, rcap), ringMask: uint64(rcap - 1),
		waiterNext: make([]int32, cfg.ROB)}
	for i := range c.ring {
		c.ring[i].waiterHead, c.ring[i].waiterTail = -1, -1
	}
	return c
}

// Retired returns the number of retired micro-ops.
func (c *CPU) Retired() uint64 { return c.retired }

// RetiredLoads returns retired load count.
func (c *CPU) RetiredLoads() uint64 { return c.retiredLoads }

// RetiredStores returns retired store count.
func (c *CPU) RetiredStores() uint64 { return c.retiredStores }

// StallROBFull returns cycles in which a full ROB blocked all dispatch.
func (c *CPU) StallROBFull() uint64 { return c.stallROBFull }

// SetFetch enables instruction-fetch modeling through the given hierarchy
// entry point. Must be called before the first Tick.
func (c *CPU) SetFetch(f FetchFunc) { c.fetch = f }

// Halt stops dispatch so the pipeline can drain: subsequent Ticks keep
// issuing and retiring in-flight instructions but admit no new ones.
// Together with InFlight this lets a runner stop the simulation at a
// retire boundary — every counted instruction fully executed — instead of
// truncating mid-flight work.
func (c *CPU) Halt() { c.halted = true }

// InFlight returns the number of instructions occupying the ROB.
func (c *CPU) InFlight() int { return c.count }

// StallFetch returns cycles in which dispatch was blocked waiting for an
// instruction block.
func (c *CPU) StallFetch() uint64 { return c.stallFetch }

// FetchMisses returns how many instruction blocks stalled dispatch.
func (c *CPU) FetchMisses() uint64 { return c.fetchMissCount }

// SetAttribution enables top-down cycle accounting: each Tick records the
// cycle into exactly one bucket of b. backpressured reports whether the
// memory system is refusing new demand work this cycle (used to split
// load-miss stalls into a DRAM-backpressure bucket). Purely observational
// — timing and counters other than b are unaffected. Must be called
// before the first Tick; pass nil to disable.
func (c *CPU) SetAttribution(b *stats.CycleBuckets, backpressured func() bool) {
	c.attr = b
	c.memBP = backpressured
}

// Tick advances the core one cycle: retire, issue ready loads, dispatch.
func (c *CPU) Tick() {
	if c.attr == nil {
		c.retire()
		c.issue()
		c.dispatch()
		return
	}
	before := c.retired
	c.retire()
	c.classify(c.retired-before, 1)
	c.issue()
	c.dispatch()
}

// Idle reports whether a Tick would change nothing but the stall
// counters: no load is ready to issue, the ROB head (if any) awaits its
// data, and dispatch is blocked — the core is halted, the ROB is full, or
// fetch is stalled. Only a CompleteLoad or CompleteFetch ends idleness.
func (c *CPU) Idle() bool {
	return c.readyCount == 0 && (c.count == 0 || !c.rob[c.head].completed) &&
		(c.halted || c.count == len(c.rob) || c.fetchStalled)
}

// SkipIdle accounts k idle cycles exactly as k calls to Tick would: the
// core must be Idle, and stays so. A full ROB counts as a ROB-full stall,
// else a stalled fetch as a fetch stall; a halted core counts neither.
func (c *CPU) SkipIdle(k uint64) {
	if c.attr != nil {
		c.classify(0, k)
	}
	switch {
	case c.halted:
	case c.count == len(c.rob):
		c.stallROBFull += k
	case c.fetchStalled:
		c.stallFetch += k
	}
}

// classify attributes k cycles to one bucket, given how many ops retired
// in each. Precedence is documented on stats.CycleBuckets. The
// ROB-occupied cases rely on an invariant of this core: only loads ever
// sit incomplete in the ROB (nops and stores complete at dispatch), so a
// non-retiring occupied ROB always means the head is a load awaiting data.
func (c *CPU) classify(ret, k uint64) {
	b := c.attr
	switch {
	case ret >= uint64(c.cfg.Width):
		b.RetireFull += k
	case ret > 0:
		b.RetirePartial += k
	case c.count > 0:
		switch {
		case c.count == len(c.rob):
			b.StallROBFull += k
		case c.memBP != nil && c.memBP():
			b.StallDRAMBP += k
		default:
			b.StallLoadMiss += k
		}
	case c.fetchStalled:
		b.StallIFetch += k
	default:
		b.StallFrontend += k
	}
}

func (c *CPU) retire() {
	for n := 0; n < c.cfg.Width && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.completed {
			break
		}
		switch e.kind {
		case Load:
			c.retiredLoads++
		case Store:
			c.retiredStores++
		}
		c.retired++
		if c.head++; c.head == len(c.rob) {
			c.head = 0
		}
		c.count--
	}
}

func (c *CPU) pushReady(idx int32) {
	c.readyQ[(c.readyHead+c.readyCount)&(len(c.readyQ)-1)] = idx
	c.readyCount++
}

func (c *CPU) popReady() int32 {
	idx := c.readyQ[c.readyHead]
	c.readyHead = (c.readyHead + 1) & (len(c.readyQ) - 1)
	c.readyCount--
	return idx
}

func (c *CPU) issue() {
	ports := c.cfg.LoadPorts
	for ports > 0 && c.readyCount > 0 {
		idx := c.popReady()
		e := &c.rob[idx]
		c.mem(e.addr, e.pc, false, idx, e.loadSeq)
		ports--
	}
}

func (c *CPU) dispatch() {
	if c.halted {
		return
	}
	progressed := false
	for n := 0; n < c.cfg.Width && c.count < len(c.rob); n++ {
		if c.fetchStalled {
			c.stallFetch++
			break
		}
		if !c.havePending {
			c.pendingOp = c.src.Next()
			c.havePending = true
		}
		op := c.pendingOp
		if c.fetch != nil && !c.tryFetch(op) {
			c.stallFetch++
			break // the op stays pending until its block arrives
		}
		c.havePending = false
		idx := int32(c.tail)
		e := &c.rob[idx]
		*e = robEntry{kind: op.Kind, addr: op.Addr, pc: op.PC}
		if c.tail++; c.tail == len(c.rob) {
			c.tail = 0
		}
		c.count++
		c.dispatched++
		progressed = true

		switch op.Kind {
		case Nop:
			e.completed = true
		case Store:
			// Stores complete into the store buffer immediately; the write
			// traffic still flows through the hierarchy.
			e.completed = true
			c.mem(op.Addr, op.PC, true, -1, 0)
		case Load:
			c.loadsDispatched++
			seq := c.loadsDispatched
			e.loadSeq = seq
			c.ring[seq&c.ringMask] = loadSlot{seq: seq, waiterHead: -1, waiterTail: -1}
			if dep := c.depSeq(op.Dep, seq); dep != 0 && !c.loadComplete(dep) {
				ds := &c.ring[dep&c.ringMask]
				c.waiterNext[idx] = -1
				if ds.waiterTail < 0 {
					ds.waiterHead = idx
				} else {
					c.waiterNext[ds.waiterTail] = idx
				}
				ds.waiterTail = idx
			} else {
				c.pushReady(idx)
			}
		}
	}
	if !progressed && c.count == len(c.rob) {
		c.stallROBFull++
	}
}

// tryFetch resolves the instruction block for op, returning false (and
// arming the stall) when the block must come from the memory hierarchy.
func (c *CPU) tryFetch(op MicroOp) bool {
	fpc := op.PC
	if fpc == 0 {
		fpc = c.nextPC
	}
	fblock := fpc >> 6
	if fblock == c.curFetchBlock {
		c.nextPC = fpc + 4
		return true
	}
	// A stalled attempt must not advance the sequential-PC cursor: the
	// same op retries after the block arrives.
	if c.fetch(fpc) {
		c.curFetchBlock = fblock
		c.nextPC = fpc + 4
		return true
	}
	c.curFetchBlock = fblock // the arriving block satisfies the retry
	c.fetchMissCount++
	c.fetchStalled = true
	return false
}

// depSeq converts a relative dependence distance into an absolute load
// sequence number; 0 means no dependence.
func (c *CPU) depSeq(dep int, self uint64) uint64 {
	if dep <= 0 {
		return 0
	}
	if uint64(dep) >= self {
		return 0
	}
	return self - uint64(dep)
}

// loadComplete reports whether load seq has completed. Loads whose ring
// slot has been recycled are, by construction, long retired.
func (c *CPU) loadComplete(seq uint64) bool {
	slot := &c.ring[seq&c.ringMask]
	return slot.seq != seq || slot.done
}

// CompleteLoad delivers the data for the load in ROB slot robIdx with
// sequence number seq, waking any dependents. Called by the hierarchy.
func (c *CPU) CompleteLoad(robIdx int32, seq uint64) {
	c.rob[robIdx].completed = true
	if slot := &c.ring[seq&c.ringMask]; slot.seq == seq {
		slot.done = true
		for w := slot.waiterHead; w >= 0; w = c.waiterNext[w] {
			c.pushReady(w)
		}
		slot.waiterHead, slot.waiterTail = -1, -1
	}
}

// CompleteFetch unblocks dispatch after an instruction-fetch miss. Called
// by the hierarchy.
func (c *CPU) CompleteFetch() { c.fetchStalled = false }
