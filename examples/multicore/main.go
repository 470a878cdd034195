// Multi-core study: the paper's introduction argues bandwidth-efficient
// prefetching matters most when several cores share the memory bus. Here
// a streaming core and a prefetch-hostile core contend for one 4.5 GB/s
// bus. With conventional very aggressive prefetching on both cores, the
// hostile core's junk floods the shared queues and it is starved; with
// per-core FDP the junk is throttled, the victim core speeds up, and
// total bus traffic drops by about a third.
//
//	go run ./examples/multicore
package main

import (
	"context"
	"fmt"
	"log"

	"fdpsim"
)

func main() {
	const perCoreInsts = 200_000

	run := func(label string, fdp bool) {
		var mc fdpsim.MultiConfig
		for _, w := range []string{"seqstream", "chaserand"} {
			cfg := fdpsim.Conventional(fdpsim.PrefStream, 5)
			if fdp {
				cfg = fdpsim.WithFDP(fdpsim.PrefStream)
				cfg.FDP.TInterval = 2048
			}
			cfg.Workload = w
			cfg.MaxInsts = perCoreInsts
			mc.Cores = append(mc.Cores, cfg)
		}
		res, err := fdpsim.RunMultiContext(context.Background(), mc)
		if err != nil {
			log.Fatal(err)
		}
		var totalInsts uint64
		for _, c := range res.Cores {
			totalInsts += c.Counters.Retired
		}
		fmt.Printf("%s\n", label)
		for _, c := range res.Cores {
			fmt.Printf("  core %-11s IPC=%.4f  BPKI=%6.1f  level=%d\n",
				c.Workload, c.IPC, c.BPKI, c.FinalLevel)
		}
		fmt.Printf("  total bus transactions per 1000 insts: %.1f\n\n",
			1000*float64(res.TotalBusAccesses)/float64(totalInsts))
	}

	run("conventional very aggressive prefetching on both cores:", false)
	run("per-core feedback directed prefetching:", true)
}
