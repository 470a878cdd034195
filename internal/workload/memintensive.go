package workload

import "fdpsim/internal/cpu"

// The 17 memory-intensive workloads (the paper's main evaluation set).
// Each generator documents the SPEC CPU2000 archetype it stands in for
// and the prefetcher behaviour it is designed to elicit.

const (
	kb = uint64(1) << 10
	mb = uint64(1) << 20
)

func init() {
	register("seqstream", true,
		"one long ascending unit-stride stream (swim-like; prefetch-friendly)",
		newSeqStream)
	register("multistream", true,
		"8 dense concurrent streams saturating the bus (accurate but late prefetches)",
		newMultiStream)
	register("revstream", true,
		"4 descending streams (equake-like; tests direction training)",
		newRevStream)
	register("elemstride", true,
		"40-byte element stride touching every block (mgrid-like; prefetch-friendly)",
		newElemStride)
	register("stride3", true,
		"3-block stride; stream prefetcher overfetches 3x (bandwidth-waste case, mild gain)",
		newStride3)
	register("stencil3", true,
		"3 row-offset streams advancing together (facerec-like)",
		newStencil3)
	register("transpose", true,
		"column-major walk, 8-block stride (stream-hostile, stride/GHB-friendly)",
		newTranspose)
	register("scanmod", true,
		"read-modify-write sweep generating writeback traffic (swim store side)",
		newScanMod)
	register("burststream", true,
		"streaming bursts separated by compute phases (galgel-like)",
		newBurstStream)
	register("shortstream", true,
		"many short 64-block streams, one load per block (ramp-limited; rewards degree)",
		newShortStream)
	register("spmv", true,
		"CSR sparse mat-vec: two index streams plus random x[] (equake-like)",
		newSpmv)
	register("chaseseq", true,
		"dependent pointer chase over a sequential heap (serial but streamable)",
		newChaseSeq)
	register("chaserand", true,
		"dependent chase over a random heap with a hot set (mcf-like; big prefetch loser)",
		newChaseRand)
	register("randsparse", true,
		"independent short random runs plus hot set (ammp-like; prefetch loser)",
		newRandSparse)
	register("mixedphase", true,
		"alternating streaming and hostile phases (tests FDP adaptation)",
		newMixedPhase)
	register("hotcold", true,
		"hot cache-resident set disturbed by cold random runs (twolf/vpr-like)",
		newHotCold)
	register("regionwalk", true,
		"repeated ascending sweeps over a 4 MB region (bzip2/vortex-like)",
		newRegionWalk)
}

func newSeqStream(seed uint64) cpu.Source {
	const footprint = 256 * mb
	cur := uint64(0)
	g := newGen("seqstream", 64*4)
	g.fill = func(g *gen) {
		for i := 0; i < 64; i++ {
			g.load(cur%footprint, pc(0))
			cur += 8
			g.nops(3)
		}
	}
	return g
}

func newMultiStream(seed uint64) cpu.Source {
	const streams = 8
	cur := make([]uint64, streams)
	for i := range cur {
		// Stagger the bases by an odd block count so the streams are not
		// set-aligned in the caches.
		cur[i] = uint64(i)*32*mb + uint64(i)*97*BlockBytes
	}
	g := newGen("multistream", streams*2)
	g.fill = func(g *gen) {
		for s := 0; s < streams; s++ {
			g.load(cur[s], pc(s))
			cur[s] += 8
			g.nops(1)
		}
	}
	return g
}

func newRevStream(seed uint64) cpu.Source {
	const streams = 4
	cur := make([]uint64, streams)
	for i := range cur {
		// Odd block stagger keeps the streams out of set alignment.
		cur[i] = uint64(i+1)*48*mb + uint64(i)*53*BlockBytes
	}
	g := newGen("revstream", streams*4)
	g.fill = func(g *gen) {
		for s := 0; s < streams; s++ {
			g.load(cur[s], pc(s))
			if cur[s] >= 8 {
				cur[s] -= 8
			}
			g.nops(3)
		}
	}
	return g
}

func newElemStride(seed uint64) cpu.Source {
	const footprint = 512 * mb
	cur := uint64(0)
	g := newGen("elemstride", 16*21)
	g.fill = func(g *gen) {
		for i := 0; i < 16; i++ {
			g.load(cur%footprint, pc(0))
			cur += 40 // 5 eight-byte elements: every block is touched
			g.nops(20)
		}
	}
	return g
}

func newStride3(seed uint64) cpu.Source {
	const footprint = 512 * mb
	cur := uint64(0)
	g := newGen("stride3", 16*49)
	g.fill = func(g *gen) {
		for i := 0; i < 16; i++ {
			g.load(cur%footprint, pc(0))
			cur += 3 * BlockBytes
			g.nops(48)
		}
	}
	return g
}

func newStencil3(seed uint64) cpu.Source {
	const row = 4*mb + 37*BlockBytes // odd block count: no set alignment
	cur := uint64(0)
	g := newGen("stencil3", 16*12)
	g.fill = func(g *gen) {
		for i := 0; i < 16; i++ {
			g.load(cur, pc(0))
			g.load(cur+row, pc(1))
			g.load(cur+2*row, pc(2))
			cur = (cur + 8) % row
			g.nops(9)
		}
	}
	return g
}

func newTranspose(seed uint64) cpu.Source {
	const rowBytes = 8 * BlockBytes // column walk jumps 8 blocks per element
	const rows = 4096
	cur, col := uint64(0), uint64(0)
	rowIdx := 0
	g := newGen("transpose", 16*13)
	g.fill = func(g *gen) {
		for i := 0; i < 16; i++ {
			g.load(cur+col*8, pc(0))
			cur += rowBytes
			rowIdx++
			if rowIdx == rows {
				rowIdx = 0
				cur = 0
				col = (col + 1) % 8
			}
			g.nops(12)
		}
	}
	return g
}

func newScanMod(seed uint64) cpu.Source {
	const footprint = 256 * mb
	cur := uint64(0)
	g := newGen("scanmod", 32*6)
	g.fill = func(g *gen) {
		for i := 0; i < 32; i++ {
			g.load(cur%footprint, pc(0))
			g.store(cur%footprint, pc(1))
			cur += 8
			g.nops(4)
		}
	}
	return g
}

func newBurstStream(seed uint64) cpu.Source {
	const footprint = 256 * mb
	cur := uint64(0)
	g := newGen("burststream", 512*2+3072)
	g.fill = func(g *gen) {
		for i := 0; i < 512; i++ {
			g.load(cur%footprint, pc(0))
			cur += 8
			g.nops(1)
		}
		g.nops(3072)
	}
	return g
}

func newShortStream(seed uint64) cpu.Source {
	// One load per block over streams of 64 blocks that restart at random
	// bases. With a single trigger per block, a degree-N prefetcher's
	// frontier only grows N-1 blocks per access, so conservative configs
	// never escape the demand stream (all-late prefetches) while
	// aggressive ones ramp ahead within a few accesses — the paper's
	// timeliness motivation for aggressiveness.
	const footprint = 512 * mb
	const streamBlocks = 160
	r := newRNG(seed ^ 0x5057)
	cur := uint64(0)
	left := 0
	g := newGen("shortstream", 16*51)
	g.fill = func(g *gen) {
		for i := 0; i < 16; i++ {
			if left == 0 {
				cur = hashAddr(r.next(), footprint)
				left = streamBlocks
			}
			g.load(cur, pc(0))
			cur += BlockBytes
			left--
			g.nops(50)
		}
	}
	return g
}

func newSpmv(seed uint64) cpu.Source {
	const xFootprint = 4 * mb
	const xBase = 1 << 33
	const ciBase = 1 << 32
	rp, ci := uint64(0), uint64(0)
	r := newRNG(seed ^ 0x5b3d)
	g := newGen("spmv", 4*19)
	g.fill = func(g *gen) {
		for row := 0; row < 4; row++ {
			g.load(rp, pc(0)) // row pointer stream
			rp += 8
			g.nops(2)
			for k := 0; k < 4; k++ {
				g.load(ciBase+ci, pc(1)) // column index stream
				ci += 8
				g.loadDep(xBase+hashAddr(r.next(), xFootprint), pc(2), 1)
				g.nops(2)
			}
		}
	}
	return g
}

func newChaseSeq(seed uint64) cpu.Source {
	const footprint = 256 * mb
	cur := uint64(0)
	g := newGen("chaseseq", 16*15)
	g.fill = func(g *gen) {
		for i := 0; i < 16; i++ {
			g.loadDep(cur%footprint, pc(0), 1)    // follow the next pointer
			g.loadDep(cur%footprint+8, pc(1), 1)  // payload reads depend on
			g.loadDep(cur%footprint+16, pc(2), 1) // the pointer load's block
			cur += BlockBytes
			g.nops(12)
		}
	}
	return g
}

func newChaseRand(seed uint64) cpu.Source {
	// mcf-like: several concurrent dependent chases over a random 64 MB
	// heap. Each node visit touches a short ascending three-block run —
	// exactly enough to train a stream tracking entry whose prefetches are
	// then all junk — while a 512 KB hot set provides the reuse that junk
	// destroys. Aggressive conventional prefetching loses heavily here;
	// FDP must throttle down and insert at LRU.
	const heap = 64 * mb
	const hotBytes = 512 * kb
	const hotBase = 1 << 34
	const chains = 4
	cur := [chains]uint64{0, 1 * mb, 2 * mb, 3 * mb}
	hot := uint64(0)
	hop := uint64(0)
	g := newGen("chaserand", chains*3+16+64)
	g.fill = func(g *gen) {
		// One round advances every chain one hop. Loads per round:
		// chains*3 chase/payload + 16 hot = 28; the chase load of chain c
		// reaches back exactly one round of loads to its own predecessor.
		for c := 0; c < chains; c++ {
			next := hashAddr(cur[c]+hop*0x9e37+uint64(c)*0x7f4a, heap)
			g.loadDep(next, pc(c), chains*3+16)
			g.loadDep(next+BlockBytes, pc(chains+c), 1)
			g.loadDep(next+2*BlockBytes, pc(2*chains+c), 2)
			cur[c] = next
		}
		for h := 0; h < 16; h++ {
			g.load(hotBase+hot, pc(3*chains+h))
			// A 9-block stride cycles through the whole hot set (gcd with
			// the block count is 1) while defeating sequential prefetching.
			hot = (hot + 9*BlockBytes) % hotBytes
		}
		// Enough compute that the no-prefetch baseline leaves bus headroom
		// (mcf is latency-, not bandwidth-, bound without a prefetcher).
		g.nops(64)
		hop++
	}
	return g
}

func newRandSparse(seed uint64) cpu.Source {
	const footprint = 64 * mb
	const hotBytes = 128 * kb
	const hotBase = 1 << 34
	r := newRNG(seed ^ 0xa11ce)
	hot := uint64(0)
	g := newGen("randsparse", 8*61)
	g.fill = func(g *gen) {
		for i := 0; i < 8; i++ {
			base := hashAddr(r.next(), footprint)
			// Independent three-block run: enough to train a stream entry,
			// far too short for its prefetches to be useful.
			g.load(base, pc(0))
			g.load(base+BlockBytes, pc(1))
			g.load(base+2*BlockBytes, pc(2))
			g.load(hotBase+hot, pc(3))
			g.load(hotBase+(hot+hotBytes/2)%hotBytes, pc(4))
			hot = (hot + 3*BlockBytes) % hotBytes
			// Leave bus headroom at the no-prefetch baseline so the loss
			// under aggressive prefetching is a prefetching effect.
			g.nops(56)
		}
	}
	return g
}

func newMixedPhase(seed uint64) cpu.Source {
	// Streaming phases are three times as long as the hostile ones, as in
	// programs whose pointer-heavy phases are a minority of execution —
	// aggressive prefetching still loses overall, and FDP must ride the
	// transitions.
	const streamOps = 300000
	const hostileOps = 100000
	streamGen := newSeqStream(seed).(*gen)
	hostileGen := newChaseRand(seed).(*gen)
	emitted := 0
	inStream := true
	g := newGen("mixedphase", 64)
	g.fill = func(g *gen) {
		src, limit := hostileGen, hostileOps
		if inStream {
			src, limit = streamGen, streamOps
		}
		for i := 0; i < 64; i++ {
			g.emit(src.Next())
			emitted++
			if emitted >= limit {
				emitted = 0
				inStream = !inStream
				return
			}
		}
	}
	return g
}

func newHotCold(seed uint64) cpu.Source {
	const hotBytes = 512 * kb
	const coldFootprint = 32 * mb
	const coldBase = 1 << 34
	r := newRNG(seed ^ 0xb0)
	hot := uint64(0)
	g := newGen("hotcold", 8*66)
	g.fill = func(g *gen) {
		for i := 0; i < 8; i++ {
			for h := 0; h < 12; h++ {
				g.load(hot, pc(h))
				hot = (hot + 9*BlockBytes) % hotBytes
				g.nops(2)
			}
			base := coldBase + hashAddr(r.next(), coldFootprint)
			g.load(base, pc(8))
			g.load(base+BlockBytes, pc(9))
			g.load(base+2*BlockBytes, pc(10))
			g.nops(27)
		}
	}
	return g
}

func newRegionWalk(seed uint64) cpu.Source {
	const region = 4 * mb
	cur := uint64(0)
	g := newGen("regionwalk", 64*4)
	g.fill = func(g *gen) {
		for i := 0; i < 64; i++ {
			g.load(cur, pc(0))
			cur = (cur + 8) % region
			g.nops(3)
		}
	}
	return g
}
