// Command tracegen records a workload's micro-op stream to a trace file,
// and can replay a trace through the simulator to verify it.
//
// Usage:
//
//	tracegen -list
//	tracegen -workload seqstream -ops 1000000 -o seqstream.trc
//	tracegen -spec svc.yaml -ops 100000000 -o svc.trc
//	tracegen -spec svc.yaml -lane 1 -seed 7 -o svc-lane1.trc
//	tracegen -replay svc.trc -prefetcher stream -level 5
//
// -spec loads a declarative WorkloadSpec (JSON or YAML; see
// docs/WORKLOADS.md) and registers it alongside the built-in workloads —
// -list then shows it tagged "spec". Recording defaults to the spec's
// name and lane 0; -lane selects another lane of a multicore/SMT spec.
// Specs and flags are validated up front, before any file is created.
//
// Traces are written in the streaming v2 format (block-framed,
// CRC-protected, replayable at O(block) memory however long the trace);
// -replay rejects a trace in the retired v1 format. Only run output goes
// to stdout; the -list listing is help text
// and prints to stderr. Exit codes follow the shared table in
// internal/cli: 0 success, 1 runtime error, 2 bad usage (unknown
// workload or prefetcher, invalid spec, and -list listings).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fdpsim"
	"fdpsim/internal/cli"
	"fdpsim/internal/trace"
	"fdpsim/internal/workload"
)

const tool = "tracegen"

func main() {
	var (
		workloadName = flag.String("workload", "seqstream", "workload to record (see -list)")
		specPath     = flag.String("spec", "", "WorkloadSpec file (JSON/YAML) to register and record")
		lane         = flag.Int("lane", 0, "spec lane to record (multicore/SMT specs)")
		ops          = flag.Uint64("ops", 1_000_000, "micro-ops to record")
		out          = flag.String("o", "", "output trace path (default <workload>.trc)")
		replay       = flag.String("replay", "", "replay a trace file through the simulator instead of recording")
		prefName     = flag.String("prefetcher", "stream", "prefetcher for -replay (see -list)")
		level        = flag.Int("level", 5, "aggressiveness for -replay")
		seed         = flag.Uint64("seed", 1, "workload seed")
		list         = flag.Bool("list", false, "list recordable workloads and replay prefetchers, then exit")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cli.PrintVersion(tool)
		return
	}

	// Load and validate the spec before anything else: a typo in the file
	// must fail with exit code 2 and no other side effects.
	var sp *fdpsim.WorkloadSpec
	if *specPath != "" {
		loaded, err := fdpsim.LoadSpec(*specPath)
		cli.FatalIf(tool, err)
		cli.FatalIf(tool, fdpsim.RegisterWorkloadSpec(loaded))
		sp = loaded
		// Unless -workload was given explicitly, record the spec itself.
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				explicit = true
			}
		})
		if !explicit {
			*workloadName = sp.Name
		}
	}

	if *list {
		cli.Listing(func(w io.Writer) {
			fmt.Fprintln(w, "workloads (-workload):")
			for _, info := range fdpsim.WorkloadList() {
				fmt.Fprintf(w, "  %-14s [%s] %s\n", info.Name, strings.Join(info.Tags, ","), info.About)
			}
			fmt.Fprintln(w, "prefetchers (-prefetcher, for -replay):")
			fmt.Fprintf(w, "  %s\n", joinKinds())
			fmt.Fprintln(w, "controllers (feedback decision policies, for replay under fdpsim -controller):")
			for _, info := range fdpsim.ControllerList() {
				fmt.Fprintf(w, "  %-14s [%s] %s\n", info.Name, strings.Join(info.Tags, ","), info.Description)
			}
		})
	}

	if *replay != "" {
		// Validate the prefetcher name before touching the trace file, so a
		// typo fails in milliseconds with the valid names, not mid-replay.
		cfg := fdpsim.Conventional(fdpsim.PrefetcherKind(*prefName), *level)
		if err := cfg.Validate(); err != nil {
			cli.Fatalf(tool, cli.ExitUsage, "%v\nvalid prefetchers: %s", err, joinKinds())
		}
		f, err := os.Open(*replay)
		cli.FatalIf(tool, err)
		defer f.Close()
		r, err := trace.Open(f)
		cli.FatalIf(tool, err)
		r.SetLoop(true)
		cfg.MaxInsts = r.Ops()
		res, err := fdpsim.RunSourceContext(context.Background(), cfg, r)
		cli.FatalIf(tool, err)
		fmt.Printf("replayed %s (%d ops): IPC=%.4f BPKI=%.2f accuracy=%.1f%%\n",
			r.Name(), r.Ops(), res.IPC, res.BPKI, 100*res.Accuracy)
		return
	}

	// Same up-front check for the workload: no half-written trace file
	// behind an unknown-name failure.
	if !workload.Exists(*workloadName) {
		cli.Fatalf(tool, cli.ExitUsage, "unknown workload %q\nvalid workloads: %s",
			*workloadName, strings.Join(workload.Names(), ", "))
	}
	var src fdpsim.Source
	switch {
	case sp != nil && *workloadName == sp.Name:
		// Record straight from the spec so -lane can address any lane, not
		// just the registry's lane 0.
		if *lane < 0 || *lane >= sp.Lanes() {
			cli.Fatalf(tool, cli.ExitUsage, "spec %s has lanes 0..%d, not %d", sp.Name, sp.Lanes()-1, *lane)
		}
		src = sp.Source(*lane, *seed)
	default:
		if *lane != 0 {
			cli.Fatalf(tool, cli.ExitUsage, "-lane only applies when recording a -spec workload")
		}
		var err error
		src, err = workload.New(*workloadName, *seed)
		cli.FatalIf(tool, err)
	}
	path := *out
	if path == "" {
		path = *workloadName + ".trc"
	}
	f, err := os.Create(path)
	cli.FatalIf(tool, err)

	// The writer streams frame by frame: recording is O(frame) memory no
	// matter how many ops -ops asks for.
	w, err := trace.NewWriterV2(f, *workloadName)
	cli.FatalIf(tool, err)
	for i := uint64(0); i < *ops; i++ {
		cli.FatalIf(tool, w.Write(src.Next()))
	}
	cli.FatalIf(tool, w.Close())
	cli.FatalIf(tool, f.Close())
	st, err := os.Stat(path)
	cli.FatalIf(tool, err)
	fmt.Printf("recorded %d ops of %s to %s (v2, %d bytes, %.2f bits/op)\n",
		*ops, *workloadName, path, st.Size(), 8*float64(st.Size())/float64(*ops))
}

func joinKinds() string {
	kinds := fdpsim.PrefetcherKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return strings.Join(names, ", ")
}
