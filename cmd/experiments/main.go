// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig9
//	experiments -run fig9,fig10,table5
//	experiments -all -insts 1000000
//	experiments -all -progress -timeout 2m
//
// A SIGINT (Ctrl-C) or an expired -timeout cancels the in-flight
// simulations at the next FDP interval boundary; tables of experiments
// already completed have been printed, so an interrupted -all run still
// exits cleanly with partial output. -progress streams per-simulation
// completions and per-FDP-interval telemetry to stderr.
//
// -cache-dir points at a content-addressed result store (shared with
// fdpserved): completed simulations are persisted there and re-runs of
// the same grid — including after a crash or across machines sharing the
// directory — are served from disk instead of re-simulating.
//
// Each experiment's wall time goes to stderr, so the text output on
// stdout is deterministic: experiments_output.txt is that output at the
// documented scale, and `make experiments-check` diffs a fresh run
// against it.
//
// -cpuprofile/-memprofile write pprof artifacts covering the whole grid,
// the usual way to check that a change kept the hot path allocation-free
// under every prefetcher and workload at once.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"fdpsim"
	"fdpsim/internal/cli"
	"fdpsim/internal/harness"
	"fdpsim/internal/store"
)

// reporter serializes live progress lines onto stderr.
type reporter struct {
	mu sync.Mutex
}

func (r *reporter) onRun(done, total int, spec harness.RunSpec, res fdpsim.Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s/%s  IPC=%.3f BPKI=%.1f (%.2fs)\n",
			done, total, spec.Workload, spec.Config, res.IPC, res.BPKI, res.Elapsed.Seconds())
	case errors.Is(err, fdpsim.ErrCancelled):
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s/%s  cancelled at %d insts\n",
			done, total, spec.Workload, spec.Config, res.Counters.Retired)
	default:
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s/%s  error: %v\n",
			done, total, spec.Workload, spec.Config, err)
	}
}

func (r *reporter) onInterval(spec harness.RunSpec, ev fdpsim.DecisionEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(os.Stderr, "    %s/%s interval %d: retired=%d IPC=%.3f acc=%.0f%% late=%.0f%% poll=%.0f%% level=%d insert=%s\n",
		spec.Workload, spec.Config, ev.Interval, ev.Retired, ev.IPC(),
		100*ev.Accuracy, 100*ev.Lateness, 100*ev.Pollution, ev.Level(), ev.Insertion)
}

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		run      = flag.String("run", "", "comma-separated experiment IDs to run")
		all      = flag.Bool("all", false, "run every experiment")
		insts    = flag.Uint64("insts", 1_000_000, "instructions per simulation (after warmup)")
		warmup   = flag.Uint64("warmup", 250_000, "warmup instructions excluded from statistics")
		seed     = flag.Uint64("seed", 1, "workload seed")
		workers  = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		tint     = flag.Uint64("tinterval", 2048, "FDP sampling interval in useful evictions (paper: 8192 at 250M insts)")
		format   = flag.String("format", "text", "output format: text, csv, or chart")
		timeout  = flag.Duration("timeout", 0, "overall deadline; expiry cancels in-flight simulations (0 = none)")
		progress = flag.Bool("progress", false, "stream per-simulation completions and per-FDP-interval telemetry to stderr")
		cacheDir = flag.String("cache-dir", "", "persist results in this content-addressed store; repeat runs are served from disk")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a post-run heap profile to this file")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cli.PrintVersion("experiments")
		return
	}

	if *list {
		cli.Listing(func(w io.Writer) {
			for _, e := range harness.Experiments() {
				fmt.Fprintf(w, "  %-12s %s\n", e.ID, e.Title)
			}
		})
	}

	var ids []string
	if *all {
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	} else if *run != "" {
		ids = strings.Split(*run, ",")
	} else {
		cli.Fatalf("experiments", cli.ExitUsage, "use -list, -run <ids>, or -all")
	}

	stopProf := cli.StartProfiles("experiments", *cpuProf, *memProf)
	defer stopProf() // normal return and the -timeout return; exits call it explicitly

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	p := harness.DefaultParams()
	p.Insts = *insts
	p.Warmup = *warmup
	p.Seed = *seed
	p.TInterval = *tint
	if *workers > 0 {
		p.Workers = *workers
	}
	if *progress {
		rep := &reporter{}
		p.Progress = &harness.Progress{OnRun: rep.onRun, OnInterval: rep.onInterval}
	}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		cli.FatalIf("experiments", err)
		p.Memo = store.NewMemo(st)
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := harness.Lookup(id)
		if !ok {
			cli.Fatalf("experiments", cli.ExitUsage, "unknown experiment %q (see -list)", id)
		}
		start := time.Now()
		tables, err := e.Run(ctx, p)
		if err != nil {
			if errors.Is(err, fdpsim.ErrCancelled) {
				fmt.Fprintf(os.Stderr, "experiments: interrupted during %s — the tables above are the completed experiments\n", id)
				if errors.Is(err, context.DeadlineExceeded) {
					return // the -timeout budget is a planned stop: exit 0
				}
				stopProf()
				os.Exit(cli.ExitInterrupted)
			}
			cli.Fatalf("experiments", cli.ExitError, "%s: %v", id, err)
		}
		fmt.Fprintf(os.Stderr, "experiments: %s took %.1fs\n", e.ID, time.Since(start).Seconds())
		switch *format {
		case "chart":
			fmt.Printf("=== %s: %s\n\n", e.ID, e.Title)
			for i := range tables {
				tables[i].RenderChart(os.Stdout, 48)
			}
		case "csv":
			for i := range tables {
				if err := tables[i].RenderCSV(os.Stdout); err != nil {
					cli.Fatalf("experiments", cli.ExitError, "%s: %v", id, err)
				}
				fmt.Println()
			}
		default:
			fmt.Printf("=== %s: %s\n\n", e.ID, e.Title)
			for i := range tables {
				tables[i].Render(os.Stdout)
			}
		}
	}
}
