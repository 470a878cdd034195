// Custom extension points: plug a user-defined prefetcher and a
// user-defined workload into the simulator through the public API.
//
// The prefetcher below is a deliberately naive "next-N on every miss"
// design. Running it with and without FDP shows the feedback mechanism is
// generic: FDP throttles any prefetcher that exposes the five-level
// aggressiveness scale, not just the paper's three.
//
//	go run ./examples/custom
package main

import (
	"context"
	"fmt"
	"log"

	"fdpsim"
)

// naivePrefetcher prefetches the next 4*level blocks on every L2 miss —
// aggressive, simple, and wasteful on irregular access patterns.
type naivePrefetcher struct {
	level int
}

func (p *naivePrefetcher) Name() string { return "naive-next-n" }

func (p *naivePrefetcher) SetLevel(level int) {
	if level < 1 {
		level = 1
	}
	if level > 5 {
		level = 5
	}
	p.level = level
}

func (p *naivePrefetcher) Level() int { return p.level }

func (p *naivePrefetcher) Observe(ev *fdpsim.PrefetchEvent, out []uint64) []uint64 {
	if !ev.Miss {
		return out
	}
	n := 4 * p.level
	for i := 1; i <= n; i++ {
		out = append(out, ev.Block+uint64(i))
	}
	return out
}

// stridedSource is a custom workload: a simple strided sweep with a hot
// scratch region, defined entirely outside the library.
type stridedSource struct{ i uint64 }

func (s *stridedSource) Name() string { return "custom-strided" }

func (s *stridedSource) Next() fdpsim.MicroOp {
	s.i++
	switch s.i % 8 {
	case 0:
		return fdpsim.MicroOp{Kind: fdpsim.OpLoad, Addr: (s.i / 8) * 96, PC: 0x500000}
	case 4:
		return fdpsim.MicroOp{Kind: fdpsim.OpLoad, Addr: 1<<33 + (s.i/8)%2048*8, PC: 0x500004}
	default:
		return fdpsim.MicroOp{Kind: fdpsim.OpNop}
	}
}

func main() {
	const insts = 400_000

	run := func(label string, dynamic bool) {
		cfg := fdpsim.Conventional(fdpsim.PrefCustom, 5)
		if dynamic {
			cfg = fdpsim.WithFDP(fdpsim.PrefCustom)
		}
		cfg.Custom = &naivePrefetcher{level: 3}
		cfg.MaxInsts = insts
		cfg.FDP.TInterval = 2048
		res, err := fdpsim.RunSourceContext(context.Background(), cfg, &stridedSource{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s IPC=%.4f  BPKI=%6.1f  accuracy=%5.1f%%  final level=%d\n",
			label, res.IPC, res.BPKI, 100*res.Accuracy, res.FinalLevel)
	}

	fmt.Println("custom prefetcher + custom workload through the public API")
	run("naive next-N, very aggr", false)
	run("naive next-N under FDP", true)
}
