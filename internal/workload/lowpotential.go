package workload

import "fdpsim/internal/cpu"

// The 9 low-potential workloads (Figure 14): programs whose working sets
// largely fit in the cache hierarchy, so even a very aggressive prefetcher
// stays nearly idle. The paper's requirement here is that FDP performs as
// well as the best conventional configuration and never hurts.

func init() {
	register("cachefit", false,
		"sequential loop over an L2-resident 512 KB array (crafty-like)", newCacheFit)
	register("tinyloop", false,
		"tight loop over an L1-resident 16 KB array (eon-like)", newTinyLoop)
	register("computebound", false,
		"1 memory op per 50 instructions (perlbmk-like)", newComputeBound)
	register("smallrand", false,
		"random loads over an L2-resident 192 KB set (gzip-like)", newSmallRand)
	register("codewalk", false,
		"large instruction footprint walking 384 KB of code through the unified L2 (gcc-like)", newCodeWalk)
	register("stackwalk", false,
		"up-down walk over a 32 KB stack region (fma3d-like)", newStackWalk)
	register("blockedmm", false,
		"blocked matrix kernel: tile-resident with rare tile switches (apsi-like)", newBlockedMM)
	register("binsearch", false,
		"dependent binary searches over an 8 MB array, top levels cached", newBinSearch)
	register("mostlyhit", false,
		"repeated sweep over a 640 KB region that fits the L2", newMostlyHit)
}

func newCacheFit(seed uint64) cpu.Source {
	const region = 512 * kb
	cur := uint64(0)
	g := newGen("cachefit", 64*4)
	g.fill = func(g *gen) {
		for i := 0; i < 64; i++ {
			g.load(cur, pc(0))
			cur = (cur + 8) % region
			g.nops(3)
		}
	}
	return g
}

func newTinyLoop(seed uint64) cpu.Source {
	const region = 16 * kb
	cur := uint64(0)
	g := newGen("tinyloop", 64*2)
	g.fill = func(g *gen) {
		for i := 0; i < 64; i++ {
			g.load(cur, pc(0))
			cur = (cur + 8) % region
			g.nops(1)
		}
	}
	return g
}

func newComputeBound(seed uint64) cpu.Source {
	const region = 2 * mb
	cur := uint64(0)
	g := newGen("computebound", 8*50)
	g.fill = func(g *gen) {
		for i := 0; i < 8; i++ {
			g.load(cur, pc(0))
			cur = (cur + 8) % region
			g.nops(49)
		}
	}
	return g
}

func newSmallRand(seed uint64) cpu.Source {
	const region = 192 * kb
	r := newRNG(seed ^ 0x51a)
	g := newGen("smallrand", 32*6)
	g.fill = func(g *gen) {
		for i := 0; i < 32; i++ {
			g.load(hashAddr(r.next(), region), pc(0))
			g.nops(5)
		}
	}
	return g
}

func newCodeWalk(seed uint64) cpu.Source {
	// gcc-like (Section 5.9): the instruction working set (384 KB, far
	// beyond the 64 KB L1I) lives in the unified L2, so the front end
	// depends on L2 hits. The data side mixes a cache-resident hot set
	// with occasional short cold runs — the pattern whose prefetcher junk
	// evicts instruction blocks and idles the processor; FDP detects the
	// pollution and throttles.
	const (
		codeBase  = uint64(0x10000000)
		funcBytes = 256 // 64 four-byte instructions
		funcs     = 1536
		hotData   = 64 * kb
		coldData  = uint64(1) << 34
		coldSpan  = 32 * mb
	)
	r := newRNG(seed ^ 0xc0de)
	fn := uint64(0)
	hot := uint64(0)
	call := uint64(0)
	g := newGen("codewalk", 64+2)
	emitAt := func(kind cpu.Kind, addr, fpc uint64, dep int) {
		g.emit(cpu.MicroOp{Kind: kind, Addr: addr, PC: fpc, Dep: dep})
	}
	g.fill = func(g *gen) {
		// One "function call": 64 sequential instructions at the
		// function's address, mixing compute with a few data accesses.
		base := codeBase + (fn%funcs)*funcBytes
		fn++ // straight-line walk: code fetch forms a long stream
		call++
		for i := uint64(0); i < 64; i++ {
			fpc := base + i*4
			switch {
			case i == 8 || i == 24 || i == 40:
				emitAt(cpu.Load, hot, fpc, 0)
				hot = (hot + 72) % hotData
			case i == 56 && call%6 == 0:
				// Cold three-block run: the prefetcher bait.
				cold := coldData + hashAddr(r.next(), coldSpan)
				emitAt(cpu.Load, cold, fpc, 0)
				emitAt(cpu.Load, cold+BlockBytes, fpc+4, 0)
				emitAt(cpu.Load, cold+2*BlockBytes, fpc+8, 0)
			default:
				emitAt(cpu.Nop, 0, fpc, 0)
			}
		}
	}
	return g
}

func newStackWalk(seed uint64) cpu.Source {
	const region = 32 * kb
	cur := uint64(0)
	up := true
	g := newGen("stackwalk", 32*4)
	g.fill = func(g *gen) {
		for i := 0; i < 32; i++ {
			g.load(cur, pc(0))
			g.store(cur, pc(1))
			if up {
				cur += 8
				if cur >= region {
					cur = region - 8
					up = false
				}
			} else {
				if cur >= 8 {
					cur -= 8
				} else {
					up = true
				}
			}
			g.nops(2)
		}
	}
	return g
}

func newBlockedMM(seed uint64) cpu.Source {
	const tile = 64 * kb
	const space = 8 * mb
	r := newRNG(seed ^ 0xb10c)
	tileBase := uint64(0)
	cur := uint64(0)
	pass := 0
	g := newGen("blockedmm", 64*5)
	g.fill = func(g *gen) {
		for i := 0; i < 64; i++ {
			g.load(tileBase+cur, pc(0))
			cur += 8
			if cur >= tile {
				cur = 0
				pass++
				if pass == 8 { // reuse the tile 8 times, then move on
					pass = 0
					tileBase = hashAddr(r.next(), space-tile)
				}
			}
			g.nops(4)
		}
	}
	return g
}

func newBinSearch(seed uint64) cpu.Source {
	const array = 8 * mb
	r := newRNG(seed ^ 0xb54c)
	g := newGen("binsearch", 21*7+8) // at most 21 halvings of 2^20 elements
	g.fill = func(g *gen) {
		lo, hi := uint64(0), array/8
		target := r.n(array / 8)
		for lo < hi {
			mid := (lo + hi) / 2
			g.loadDep(mid*8, pc(0), 1)
			g.nops(6)
			if mid < target {
				lo = mid + 1
			} else if mid > target {
				hi = mid
			} else {
				break
			}
		}
		g.nops(8)
	}
	return g
}

func newMostlyHit(seed uint64) cpu.Source {
	const region = 640 * kb
	cur := uint64(0)
	g := newGen("mostlyhit", 64*3)
	g.fill = func(g *gen) {
		for i := 0; i < 64; i++ {
			g.load(cur, pc(0))
			cur = (cur + 8) % region
			g.nops(2)
		}
	}
	return g
}
