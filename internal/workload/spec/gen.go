package spec

import (
	"fdpsim/internal/cpu"
)

// The generator turns a validated Spec into per-lane cpu.Sources. All
// randomness flows from xorshift64* states seeded by splitmix64 over
// (seed, lane, phase, client), so the stream is a pure function of
// (spec, seed) — stable across Go releases and platforms. The hot path
// reuses one micro-op queue per lane and allocates nothing in steady
// state, matching the built-in kernel generators.

// rng is the same xorshift64* generator the built-in workloads use.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// n returns a value in [0, n).
func (r *rng) n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// mix folds values into a non-zero rng seed (splitmix64 finalizer).
func mix(vals ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x += v + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return x
}

// hashAddr maps a value to a block-aligned address inside a footprint —
// the deterministic stand-in for a pointer field or an index lookup.
func hashAddr(a, footprint uint64) uint64 {
	x := a
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return (x % (footprint / BlockBytes)) * BlockBytes
}

// loadRingDeps bounds the dependence distance a chase client may express:
// the CPU's load ring tracks 4096 recent loads, so reach-backs are clamped
// well below it.
const loadRingDeps = 4000

// clientState is one client's persistent generation state. It survives
// phase wrap-around, so a stream resumes where it left off — like a real
// program returning to a phase.
type clientState struct {
	// schedule
	weight   uint64
	burstOn  int
	burstOff int

	// pattern
	kind       string
	footprint  uint64 // bytes (working set for hotset)
	gap        int
	gapJitter  int
	storeEvery int
	runBlocks  int

	// stride
	strideCum []uint64 // cumulative fixed-point stride weights
	strideVal []int64
	strideTot uint64
	pos       int64 // current offset within the footprint

	// chase
	ptr           uint64 // current node address (offset in footprint)
	lastChaseLoad uint64 // global lane load count at the last hop

	// hotset
	hot uint64

	base     uint64 // private address-space base
	pcBase   uint64 // private PC range (prefetcher training state)
	accesses uint64 // for store_every
	r        rng
}

// idleTurn is how many idle micro-ops one turn of a lane no client
// targets emits.
const idleTurn = 256

// laneGen composes the clients of one lane across all phases into an
// unbounded micro-op stream. It reuses the refillable-queue chassis of the
// built-in kernels: Next drains a queue that fill() tops up one scheduling
// turn at a time, and the queue is built for the lane's longest turn.
type laneGen struct {
	name  string
	queue []cpu.MicroOp
	qi    int

	phases   []phaseState
	phaseIdx int
	phaseOps uint64 // micro-ops emitted within the current phase
	sched    rng    // scheduling picks (client selection)

	loads uint64 // loads emitted so far, for chase dependence distances
}

type phaseState struct {
	ops     uint64
	clients []*clientState
	cum     []uint64 // cumulative weights for O(log n)-free linear pick
	total   uint64
}

// Source builds the generator for one lane. The lane must be in
// [0, s.Lanes()); the spec must be valid (Validate or Parse first —
// Source assumes normalized semantics and applies the same defaults).
func (s *Spec) Source(lane int, seed uint64) cpu.Source {
	n := s.normalize()
	g := &laneGen{name: n.Name, sched: rng{s: mix(seed, uint64(lane), 0x5ced)}}
	turn := idleTurn
	// Client identity spans phases by (phase, index): the same logical
	// client listed in two phases is two states — specs wanting continuity
	// express it as one phase with bursty clients instead.
	clientIdx := 0
	for pi, ph := range n.Phases {
		ps := phaseState{ops: ph.Ops}
		for ci, c := range ph.Clients {
			clientIdx++
			if c.Lane != lane {
				continue
			}
			cs := &clientState{
				weight:     fixedWeight(c.Weight),
				burstOn:    c.BurstOn,
				burstOff:   c.BurstOff,
				kind:       c.Pattern.Kind,
				gap:        c.Pattern.Gap,
				gapJitter:  c.Pattern.GapJitter,
				storeEvery: c.Pattern.StoreEvery,
				runBlocks:  c.Pattern.RunBlocks,
				base:       uint64(clientIdx) << 34, // 16 GB per client
				pcBase:     0x400000 + uint64(clientIdx)<<12,
				r:          rng{s: mix(seed, uint64(lane), uint64(pi), uint64(ci))},
			}
			switch cs.kind {
			case KindHotset:
				cs.footprint = c.Pattern.WorkingSetKB << 10
			default:
				cs.footprint = c.Pattern.FootprintKB << 10
			}
			if cs.footprint < BlockBytes {
				cs.footprint = BlockBytes
			}
			if cs.kind == KindStride {
				for _, st := range c.Pattern.Strides {
					cs.strideTot += fixedWeight(st.Weight)
					cs.strideCum = append(cs.strideCum, cs.strideTot)
					cs.strideVal = append(cs.strideVal, st.Bytes)
				}
			}
			if cs.kind == KindChase {
				cs.ptr = hashAddr(cs.r.next(), cs.footprint)
			}
			ps.clients = append(ps.clients, cs)
			ps.total += cs.weight
			ps.cum = append(ps.cum, ps.total)
			turn = max(turn, c.turnOps())
		}
		g.phases = append(g.phases, ps)
	}
	g.queue = make([]cpu.MicroOp, 0, turn)
	return g
}

// Sources builds one generator per lane, ready to attach to the cores or
// hardware threads of a multicore/SMT composition.
func (s *Spec) Sources(seed uint64) []cpu.Source {
	out := make([]cpu.Source, s.Lanes())
	for lane := range out {
		out[lane] = s.Source(lane, seed)
	}
	return out
}

// fixedWeight converts a (already defaulted, non-negative) float weight
// to fixed point so scheduling is integer-only and bit-reproducible.
func fixedWeight(w float64) uint64 {
	fw := uint64(w*weightScale + 0.5)
	if fw == 0 {
		fw = 1
	}
	return fw
}

// Name implements cpu.Source.
func (g *laneGen) Name() string { return g.name }

// Next implements cpu.Source.
func (g *laneGen) Next() cpu.MicroOp {
	for g.qi >= len(g.queue) {
		g.queue = g.queue[:0]
		g.qi = 0
		g.fill()
	}
	op := g.queue[g.qi]
	g.qi++
	return op
}

// fill emits one scheduling turn: pick a client of the current phase by
// weight, let it issue a burst, then advance the phase clock.
func (g *laneGen) fill() {
	ph := &g.phases[g.phaseIdx]
	if len(ph.clients) == 0 {
		// No client targets this lane in this phase: the lane idles
		// through it (a compute phase from the memory system's view).
		idle := ph.ops - g.phaseOps
		if idle > idleTurn {
			idle = idleTurn
		}
		if idle == 0 {
			idle = 1 // defensive: always make progress
		}
		for i := uint64(0); i < idle; i++ {
			g.emit(cpu.MicroOp{Kind: cpu.Nop})
		}
		g.advance(idle)
		return
	}
	pick := g.sched.n(ph.total)
	var c *clientState
	for i, cum := range ph.cum {
		if pick < cum {
			c = ph.clients[i]
			break
		}
	}
	before := len(g.queue)
	for b := 0; b < c.burstOn; b++ {
		g.emitAccess(c)
	}
	for i := 0; i < c.burstOff; i++ {
		g.emit(cpu.MicroOp{Kind: cpu.Nop})
	}
	g.advance(uint64(len(g.queue) - before))
}

// advance moves the phase clock and wraps to the next phase when the
// current one's per-lane op budget is spent.
func (g *laneGen) advance(emitted uint64) {
	g.phaseOps += emitted
	ph := &g.phases[g.phaseIdx]
	if ph.ops > 0 && g.phaseOps >= ph.ops {
		g.phaseOps = 0
		g.phaseIdx++
		if g.phaseIdx == len(g.phases) {
			g.phaseIdx = 0
		}
	}
}

func (g *laneGen) emit(op cpu.MicroOp) {
	if op.Kind == cpu.Load {
		g.loads++
	}
	g.queue = append(g.queue, op)
}

// gapNops emits a client's inter-access think time.
func (g *laneGen) gapNops(c *clientState) {
	n := c.gap
	if c.gapJitter > 0 {
		n += int(c.r.n(uint64(c.gapJitter)))
	}
	for i := 0; i < n; i++ {
		g.emit(cpu.MicroOp{Kind: cpu.Nop})
	}
}

// isStore consults the client's store_every cadence.
func (c *clientState) isStore() bool {
	return c.storeEvery > 0 && c.accesses%uint64(c.storeEvery) == uint64(c.storeEvery-1)
}

// emitAccess issues one pattern access (which may touch several blocks).
func (g *laneGen) emitAccess(c *clientState) {
	switch c.kind {
	case KindStride:
		// Draw the advance from the empirical distribution; the position
		// wraps within the footprint in both directions.
		addr := c.base + uint64(c.pos)
		if c.isStore() {
			g.emit(cpu.MicroOp{Kind: cpu.Store, Addr: addr, PC: c.pcBase + 4})
		} else {
			g.emit(cpu.MicroOp{Kind: cpu.Load, Addr: addr, PC: c.pcBase})
		}
		c.accesses++
		pick := c.r.n(c.strideTot)
		for i, cum := range c.strideCum {
			if pick < cum {
				c.pos += c.strideVal[i]
				break
			}
		}
		if fp := int64(c.footprint); c.pos < 0 || c.pos >= fp {
			// Wrap into [0, fp) in one step: a stride many footprints
			// long must not take as many subtractions.
			if c.pos %= fp; c.pos < 0 {
				c.pos += fp
			}
		}
		g.gapNops(c)

	case KindChase:
		// The hop load depends on the previous hop: its producer is the
		// lane's lastChaseLoad-th load, Dep counts loads back from this
		// one. Payload reads of the node depend on the hop itself.
		next := hashAddr(c.ptr+0x9e3779b97f4a7c15, c.footprint)
		dep := 0
		if c.lastChaseLoad > 0 {
			d := g.loads + 1 - c.lastChaseLoad
			if d > loadRingDeps {
				d = loadRingDeps
			}
			dep = int(d)
		}
		g.emit(cpu.MicroOp{Kind: cpu.Load, Addr: c.base + next, PC: c.pcBase, Dep: dep})
		c.lastChaseLoad = g.loads
		c.ptr = next
		c.accesses++
		for r := 1; r < c.runBlocks; r++ {
			g.emit(cpu.MicroOp{Kind: cpu.Load, Addr: c.base + next + uint64(r)*BlockBytes,
				PC: c.pcBase + uint64(r)*4, Dep: r})
		}
		g.gapNops(c)

	case KindRandom:
		// Independent short run at a random block: trains stream entries
		// whose prefetches never pay off.
		node := hashAddr(c.r.next(), c.footprint)
		for r := 0; r < c.runBlocks; r++ {
			addr := c.base + node + uint64(r)*BlockBytes
			pc := c.pcBase + uint64(r)*4
			if r == 0 && c.isStore() {
				g.emit(cpu.MicroOp{Kind: cpu.Store, Addr: addr, PC: pc})
			} else {
				g.emit(cpu.MicroOp{Kind: cpu.Load, Addr: addr, PC: pc})
			}
		}
		c.accesses++
		g.gapNops(c)

	case KindHotset:
		// A 9-block stride defeats sequential prefetching while cycling
		// the resident set (the built-in hotcold idiom).
		addr := c.base + c.hot
		if c.isStore() {
			g.emit(cpu.MicroOp{Kind: cpu.Store, Addr: addr, PC: c.pcBase + 4})
		} else {
			g.emit(cpu.MicroOp{Kind: cpu.Load, Addr: addr, PC: c.pcBase})
		}
		c.accesses++
		c.hot = (c.hot + 9*BlockBytes) % c.footprint
		g.gapNops(c)
	}
}
