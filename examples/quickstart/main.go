// Quickstart: run the paper's headline comparison on one workload — no
// prefetching vs. a conventional very aggressive stream prefetcher vs.
// full Feedback Directed Prefetching — and print IPC, bandwidth and the
// prefetcher-quality metrics FDP estimates in hardware.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"fdpsim"
)

func main() {
	const workload = "seqstream"
	const insts = 500_000

	run := func(label string, cfg fdpsim.Config) fdpsim.Result {
		cfg.Workload = workload
		cfg.MaxInsts = insts
		res, err := fdpsim.RunContext(context.Background(), cfg)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-22s IPC=%.3f  BPKI=%5.1f  accuracy=%5.1f%%  lateness=%5.1f%%\n",
			label, res.IPC, res.BPKI, 100*res.Accuracy, 100*res.Lateness)
		return res
	}

	for _, info := range fdpsim.WorkloadList() {
		if info.Name == workload {
			fmt.Printf("workload %q: %s\n\n", workload, info.About)
		}
	}
	base := run("no prefetching", fdpsim.Default())
	va := run("very aggressive", fdpsim.Conventional(fdpsim.PrefStream, 5))
	fdp := run("FDP", fdpsim.WithFDP(fdpsim.PrefStream))

	fmt.Printf("\nprefetching speedup: %+.1f%%   FDP vs. conventional: %+.1f%% IPC, %+.1f%% bandwidth\n",
		100*(va.IPC-base.IPC)/base.IPC,
		100*(fdp.IPC-va.IPC)/va.IPC,
		100*(fdp.BPKI-va.BPKI)/va.BPKI)
}
