// Insertion-policy study (the paper's Section 5.2): where in the L2's LRU
// stack should prefetched blocks land? MRU insertion keeps accurate
// prefetches alive longest; LRU insertion makes junk prefetches evict
// themselves. This example sweeps the four static positions plus Dynamic
// Insertion on a pollution-sensitive workload and a clean stream, showing
// why no static choice wins both.
//
//	go run ./examples/insertion
package main

import (
	"context"
	"fmt"
	"log"

	"fdpsim"
)

func main() {
	const insts = 500_000
	positions := []struct {
		label string
		pos   fdpsim.InsertPos
	}{
		{"LRU", fdpsim.PosLRU},
		{"LRU-4", fdpsim.PosLRU4},
		{"MID", fdpsim.PosMID},
		{"MRU", fdpsim.PosMRU},
	}

	about := map[string]string{}
	for _, info := range fdpsim.WorkloadList() {
		about[info.Name] = info.About
	}
	for _, workload := range []string{"hotcold", "seqstream"} {
		fmt.Printf("workload %q: %s\n", workload, about[workload])
		for _, p := range positions {
			cfg := fdpsim.Conventional(fdpsim.PrefStream, 5)
			cfg.Workload = workload
			cfg.MaxInsts = insts
			cfg.FDP.StaticInsertion = p.pos
			res, err := fdpsim.RunContext(context.Background(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  insert at %-6s IPC=%.4f  BPKI=%6.1f\n", p.label, res.IPC, res.BPKI)
		}
		cfg := fdpsim.Conventional(fdpsim.PrefStream, 5)
		cfg.Workload = workload
		cfg.MaxInsts = insts
		cfg.FDP.TInterval = 2048
		cfg.FDP.DynamicInsertion = true // Dynamic Insertion alone, level stays pinned
		res, err := fdpsim.RunContext(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  dynamic (FDP)    IPC=%.4f  BPKI=%6.1f   chosen: %s\n\n",
			res.IPC, res.BPKI, res.InsertDist)
	}
}
