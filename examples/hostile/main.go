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

	type row struct {
		label string
		kind  fdpsim.PrefetcherKind
		extra []fdpsim.Option
	}
	rows := []row{
		{"no prefetching", fdpsim.PrefNone, nil},
		{"very conservative", fdpsim.PrefStream, []fdpsim.Option{fdpsim.WithFixedAggressiveness(1)}},
		{"very aggressive", fdpsim.PrefStream, []fdpsim.Option{fdpsim.WithFixedAggressiveness(5)}},
		{"FDP", fdpsim.PrefStream, nil},
	}

	for _, info := range fdpsim.WorkloadList() {
		if info.Name == workload {
			fmt.Printf("workload %q: %s\n\n", workload, info.About)
		}
	}
	fmt.Printf("%-20s %8s %8s %10s %10s\n", "configuration", "IPC", "BPKI", "accuracy", "pollution")
	var fdpRes fdpsim.Result
	for _, r := range rows {
		opts := append([]fdpsim.Option{
			fdpsim.WithWorkload(workload),
			fdpsim.WithInsts(insts),
			// sample faster than the paper's 8192 for this short run
			fdpsim.WithTInterval(2048),
		}, r.extra...)
		cfg, err := fdpsim.NewConfig(r.kind, opts...)
		if err != nil {
			log.Fatalf("%s: %v", r.label, err)
		}
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
