// Hostile-workload study: the paper's motivating failure case. On an
// mcf-like dependent pointer chase, a very aggressive stream prefetcher
// trains on short bursts, floods the bus with junk and evicts the
// program's hot set — losing half its performance. FDP detects the low
// accuracy and pollution, throttles to Very Conservative, inserts the
// remaining prefetches at LRU, and recovers nearly all of the loss while
// cutting bandwidth.
//
//	go run ./examples/hostile
package main

import (
	"context"
	"fmt"
	"log"

	"fdpsim"
)

func main() {
	const workload = "chaserand"
	const insts = 800_000

	rows := []struct {
		label string
		cfg   fdpsim.Config
	}{
		{"no prefetching", fdpsim.Default()},
		{"very conservative", fdpsim.Conventional(fdpsim.PrefStream, 1)},
		{"very aggressive", fdpsim.Conventional(fdpsim.PrefStream, 5)},
		{"FDP", fdpsim.WithFDP(fdpsim.PrefStream)},
	}

	for _, info := range fdpsim.WorkloadList() {
		if info.Name == workload {
			fmt.Printf("workload %q: %s\n\n", workload, info.About)
		}
	}
	fmt.Printf("%-20s %8s %8s %10s %10s\n", "configuration", "IPC", "BPKI", "accuracy", "pollution")
	var fdpRes fdpsim.Result
	for _, r := range rows {
		cfg := r.cfg
		cfg.Workload = workload
		cfg.MaxInsts = insts
		cfg.FDP.TInterval = 2048 // sample faster than the paper's 8192 for this short run
		res, err := fdpsim.RunContext(context.Background(), cfg)
		if err != nil {
			log.Fatalf("%s: %v", r.label, err)
		}
		fmt.Printf("%-20s %8.4f %8.1f %9.1f%% %9.1f%%\n",
			r.label, res.IPC, res.BPKI, 100*res.Accuracy, 100*res.Pollution)
		if r.label == "FDP" {
			fdpRes = res
		}
	}

	fmt.Printf("\nFDP adaptation over %d sampling intervals:\n  %s\n  %s\n",
		fdpRes.Intervals, fdpRes.LevelDist, fdpRes.InsertDist)
}
