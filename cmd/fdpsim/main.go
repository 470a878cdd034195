// Command fdpsim runs a single simulation and prints its metrics.
//
// Usage:
//
//	fdpsim -workload seqstream -prefetcher stream -level 5 -insts 1000000
//	fdpsim -workload chaserand -prefetcher stream -fdp
//	fdpsim -workload mixedphase -fdp -progress -timeout 30s
//	fdpsim -workload chaserand -fdp -trace-out decisions.jsonl
//	fdpsim -workload chaserand -fdp -trace-out trace.json -trace-format chrome
//	fdpsim -workload chaserand -fdp -series-out run.series.bin
//	fdpsim -spec svc.yaml -fdp -insts 2000000
//	fdpsim -workload chaserand -fdp -controller dspatch-dual
//	fdpsim -workload chaserand -fdp -controller tree -controller-model tree.json
//	fdpsim -workload chaserand -fdp -decision-log features.csv
//	fdpsim -list
//
// -controller swaps the feedback decision policy (the paper's Table 2
// logic, the default) for a registered competitor; -list names them.
// -controller-model loads a decision-tree model file for the "tree"
// controller. -decision-log writes a per-interval CSV feature dump —
// the training data for scripts/train_tree.go (see docs/CONTROLLERS.md).
//
// -spec loads a declarative WorkloadSpec (JSON or YAML; see
// docs/WORKLOADS.md), registers it alongside the built-in workloads, and
// runs it. A single-lane spec runs like any workload; a multi-lane spec
// fans its lanes out as cores on the shared bus and reports like -cores.
//
// -progress streams one line of FDP telemetry per sampling interval to
// stderr. -trace-out records the full FDP decision trace — one
// DecisionEvent per sampling interval — to a file, as JSONL or as a
// Chrome trace_event document (-trace-format chrome) loadable in Perfetto;
// see docs/OBSERVABILITY.md. -series-out records the compact columnar
// interval timeseries (the internal/series binary format) — the artifact
// fdpserved diffs at GET /v1/diff and fdptop -diff renders. A SIGINT (Ctrl-C) or an expired -timeout
// stops the run at the next interval boundary and the partial metrics
// (and a partial trace) are written, marked "(partial)". Only results go
// to stdout; listings, progress and diagnostics go to stderr.
// -cpuprofile/-memprofile write pprof artifacts covering the simulation
// (the heap profile is taken after a final GC, so it shows steady-state
// retention — the event engine's pools — not transient garbage). Exit codes
// follow the shared table in internal/cli: 0 success (including a
// -timeout stop), 2 bad usage, configuration or a -list listing, 130
// interrupted by SIGINT, 1 other errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fdpsim"
	"fdpsim/internal/cli"
	"fdpsim/internal/obs"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/series"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

const tool = "fdpsim"

// emitJSON prints a machine-readable single-run result.
func emitJSON(res fdpsim.Result) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	cli.FatalIf(tool, enc.Encode(res))
}

// traceSink is what -trace-out needs from an obs sink.
type traceSink interface {
	fdpsim.Tracer
	Close() error
}

// openTrace wires -trace-out/-trace-format into the configuration and
// returns the function that finalizes the artifact after the run. A nil
// return means tracing is disabled.
func openTrace(cfg *fdpsim.Config, path, format string) func() {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	cli.FatalIf(tool, err)
	var sink traceSink
	switch format {
	case "jsonl":
		sink = obs.NewJSONL(f)
	case "chrome":
		sink = obs.NewChrome(f)
	default:
		cli.Fatalf(tool, cli.ExitUsage, "unknown -trace-format %q (want jsonl or chrome)", format)
	}
	cfg.Tracer = sink
	return func() {
		if err := sink.Close(); err != nil {
			cli.Fatalf(tool, cli.ExitError, "writing decision trace %s: %v", path, err)
		}
		cli.FatalIf(tool, f.Close())
		fmt.Fprintf(os.Stderr, "fdpsim: decision trace written to %s (%s)\n", path, format)
	}
}

// openDecisionLog wires -decision-log into the configuration: a CSV
// feature dump of every interval decision, the training input for
// scripts/train_tree.go. Composes with -trace-out.
func openDecisionLog(cfg *fdpsim.Config, path string) func() {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	cli.FatalIf(tool, err)
	sink := obs.NewDecisionCSV(f)
	cfg.Tracer = obs.Tee(cfg.Tracer, sink)
	return func() {
		if err := sink.Close(); err != nil {
			cli.Fatalf(tool, cli.ExitError, "writing decision log %s: %v", path, err)
		}
		cli.FatalIf(tool, f.Close())
		fmt.Fprintf(os.Stderr, "fdpsim: decision log written to %s (%d rows)\n", path, sink.Rows())
	}
}

// openSeries wires -series-out into the configuration: the compact
// columnar interval timeseries (the internal/series binary format), the
// same artifact fdpserved stores as a sidecar and serves at
// GET /v1/jobs/{id}/series. Composes with -trace-out and -decision-log.
func openSeries(cfg *fdpsim.Config, path string) func() {
	if path == "" {
		return nil
	}
	// Probe writability up front so a bad path fails before the run.
	f, err := os.Create(path)
	cli.FatalIf(tool, err)
	cli.FatalIf(tool, f.Close())
	rec := &series.Recorder{}
	cfg.Tracer = obs.Tee(cfg.Tracer, rec)
	return func() {
		sr := rec.Series()
		sr.Meta.Workload = cfg.Workload
		sr.Meta.Prefetcher = string(cfg.Prefetcher)
		doc, err := series.Encode(sr)
		if err != nil {
			cli.Fatalf(tool, cli.ExitError, "encoding interval series: %v", err)
		}
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			cli.Fatalf(tool, cli.ExitError, "writing interval series %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "fdpsim: interval series written to %s (%d intervals, %d bytes)\n",
			path, sr.Len(), len(doc))
	}
}

// printAttribution renders the -attr report section: where the cycles
// went (top-down), where the bus went (per-kind occupancy), how hard the
// memory system was pressed, and how timely the prefetches were.
func printAttribution(a *stats.Attribution) {
	total := a.Cycles.Total()
	if total == 0 {
		return
	}
	pct := func(v uint64) float64 { return 100 * float64(v) / float64(total) }
	c := a.Cycles
	fmt.Printf("cycles     : retire-full %.1f%%  retire-partial %.1f%%  load-miss %.1f%%  rob-full %.1f%%  dram-bp %.1f%%  ifetch %.1f%%  frontend %.1f%%\n",
		pct(c.RetireFull), pct(c.RetirePartial), pct(c.StallLoadMiss),
		pct(c.StallROBFull), pct(c.StallDRAMBP), pct(c.StallIFetch), pct(c.StallFrontend))
	fmt.Printf("bus        : utilization %.1f%% (demand %.1f%% + prefetch %.1f%% + writeback %.1f%%)  row-hit %.1f%%\n",
		100*a.BusUtilization(), pct(a.BusDemandCycles), pct(a.BusPrefetchCycles),
		pct(a.BusWritebackCycles), 100*a.RowHitRate())
	fmt.Printf("pressure   : MSHR occupancy mean %.1f  DRAM queues mean d=%.1f p=%.1f wb=%.1f\n",
		a.MSHROcc.Mean(), a.QueueDemand.Mean(), a.QueuePrefetch.Mean(), a.QueueWriteback.Mean())
	fmt.Printf("timeliness : fill-to-use p50=%d p90=%d cycles  late-by p50=%d cycles  unused prefetches=%d\n",
		a.FillToUse.Quantile(0.5), a.FillToUse.Quantile(0.9), a.LateBy.Quantile(0.5), a.PrefUnused)
}

// progressTracer prints one line per FDP sampling interval to stderr.
// The retire target, a pinned level and the wall clock come from cfg and
// the tracer's own start time, not from the event.
func progressTracer(cfg fdpsim.Config) fdpsim.Tracer {
	start := time.Now()
	return fdpsim.TracerFunc(func(ev fdpsim.DecisionEvent) {
		var ipc float64
		if ev.Cycle > 0 {
			ipc = float64(ev.Retired) / float64(ev.Cycle)
		}
		level := ev.DCCAfter
		if cfg.StaticLevel > 0 {
			level = cfg.StaticLevel
		}
		fmt.Fprintf(os.Stderr, "interval %4d: retired=%9d/%d IPC=%.3f acc=%5.1f%% late=%5.1f%% poll=%5.1f%% level=%d insert=%-5s (%.1fs)\n",
			ev.Interval, ev.Retired, cfg.MaxInsts, ipc,
			100*ev.Accuracy, 100*ev.Lateness, 100*ev.Pollution, level, ev.Insertion, time.Since(start).Seconds())
	})
}

// runMulticore executes one multi-core simulation with every core using
// the already-parsed single-core configuration as its template.
func runMulticore(ctx context.Context, tmpl fdpsim.Config, workloads []string, jsonOut bool, finishTrace, stopProf func()) {
	var mc fdpsim.MultiConfig
	for _, w := range workloads {
		cfg := tmpl
		cfg.Workload = strings.TrimSpace(w)
		mc.Cores = append(mc.Cores, cfg)
	}
	res, err := fdpsim.RunMultiContext(ctx, mc)
	reportMulti(res, err, jsonOut, finishTrace, stopProf)
}

// reportMulti renders a multi-core result and exits the process. It is
// shared by -cores (named workloads) and multi-lane -spec runs.
// finishTrace, when non-nil, finalizes the -trace-out artifact (the cores
// share the template's tracer; events carry the core index). stopProf
// finalizes the -cpuprofile/-memprofile artifacts; it runs here because
// this function exits the process, skipping main's deferred copy.
func reportMulti(res fdpsim.MultiResult, err error, jsonOut bool, finishTrace, stopProf func()) {
	stopProf()
	if finishTrace != nil {
		finishTrace() // flush even a partial trace; it matches the partial result
	}
	code := cli.ExitCode(err)
	if err != nil && !errors.Is(err, fdpsim.ErrCancelled) {
		cli.Fatalf(tool, code, "%v", err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		cli.FatalIf(tool, enc.Encode(res))
		os.Exit(code)
	}
	if res.Partial {
		fmt.Println("run cancelled — partial results up to the stop cycle:")
	}
	var totalInsts uint64
	for i, c := range res.Cores {
		partial := ""
		if c.Partial {
			partial = " (partial)"
		}
		fmt.Printf("core %d %-14s IPC=%.4f BPKI=%7.1f accuracy=%5.1f%% level=%d finish=%d%s\n",
			i, c.Workload, c.IPC, c.BPKI, 100*c.Accuracy, c.FinalLevel, c.FinishCycle, partial)
		totalInsts += c.Counters.Retired
	}
	if totalInsts > 0 {
		fmt.Printf("aggregate IPC=%.4f  total bus/KI=%.1f  cycles=%d\n",
			res.AggregateIPC(), 1000*float64(res.TotalBusAccesses)/float64(totalInsts), res.Cycles)
	}
	os.Exit(code)
}

func main() {
	var (
		workloadName = flag.String("workload", "seqstream", "workload name (see -list)")
		specPath     = flag.String("spec", "", "WorkloadSpec file (JSON/YAML) to register and run (multi-lane specs fan out like -cores)")
		prefName     = flag.String("prefetcher", "stream", "prefetcher: none, stream, ghb, stride, nextline")
		level        = flag.Int("level", 5, "static aggressiveness 1..5 (ignored with -fdp)")
		fdp          = flag.Bool("fdp", false, "enable full FDP (dynamic aggressiveness + insertion)")
		dynIns       = flag.Bool("dynins", false, "enable only dynamic insertion (static level)")
		insertAt     = flag.String("insert", "MRU", "static insertion position: MRU, MID, LRU-4, LRU")
		insts        = flag.Uint64("insts", 1_000_000, "instructions to retire")
		memlat       = flag.Uint64("memlat", 0, "scale DRAM latencies to target this minimum main-memory latency (0 = baseline 500)")
		l2kb         = flag.Int("l2kb", 0, "L2 size in KB (0 = baseline 1024)")
		seed         = flag.Uint64("seed", 1, "workload seed")
		list         = flag.Bool("list", false, "list workloads and exit")
		verbose      = flag.Bool("v", false, "print raw counters")
		jsonOut      = flag.Bool("json", false, "emit the result as JSON")
		cores        = flag.String("cores", "", "comma-separated workloads for a multi-core run on a shared bus")
		configPath   = flag.String("config", "", "JSON file overriding the assembled configuration")
		dumpConfig   = flag.Bool("dumpconfig", false, "print the assembled configuration as JSON and exit")
		timeout      = flag.Duration("timeout", 0, "deadline; expiry stops the run and prints partial metrics (0 = none)")
		progress     = flag.Bool("progress", false, "stream per-FDP-interval telemetry to stderr")
		traceOut     = flag.String("trace-out", "", "write the FDP decision trace (one event per sampling interval) to this file")
		traceFormat  = flag.String("trace-format", "jsonl", "decision trace format: jsonl or chrome (Perfetto-loadable)")
		seriesOut    = flag.String("series-out", "", "write the compact columnar interval timeseries (internal/series binary) to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProfile   = flag.String("memprofile", "", "write a post-run heap profile to this file")
		attr         = flag.Bool("attr", false, "enable cycle accounting & bandwidth attribution (stall/bus breakdown in the report, per-interval samples in traces)")
		controller   = flag.String("controller", "", "feedback decision policy (see -list; empty = the paper's Table 2 policy)")
		ctrlModel    = flag.String("controller-model", "", "decision-tree model JSON file (selects -controller tree)")
		decisionLog  = flag.String("decision-log", "", "write a per-interval CSV feature dump (training data for scripts/train_tree.go)")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cli.PrintVersion(tool)
		return
	}

	// Load and validate the spec before anything else: a typo in the file
	// must fail with exit code 2 before any artifact is opened, and a valid
	// spec must appear in -list. Unless -workload was given explicitly, the
	// spec itself is what runs.
	var sp *fdpsim.WorkloadSpec
	if *specPath != "" {
		loaded, err := fdpsim.LoadSpec(*specPath)
		cli.FatalIf(tool, err)
		cli.FatalIf(tool, fdpsim.RegisterWorkloadSpec(loaded))
		sp = loaded
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
			fmt.Fprintln(w, "memory-intensive (the paper's 17-benchmark set):")
			for _, info := range fdpsim.WorkloadList(fdpsim.WorkloadTagMemIntensive) {
				fmt.Fprintf(w, "  %-14s %s\n", info.Name, info.About)
			}
			fmt.Fprintln(w, "low-potential (Figure 14's 9 benchmarks):")
			for _, info := range fdpsim.WorkloadList(fdpsim.WorkloadTagLowPotential) {
				fmt.Fprintf(w, "  %-14s %s\n", info.Name, info.About)
			}
			if specs := fdpsim.WorkloadList(fdpsim.WorkloadTagSpec); len(specs) > 0 {
				fmt.Fprintln(w, "spec-defined (registered from -spec):")
				for _, info := range specs {
					fmt.Fprintf(w, "  %-14s %s\n", info.Name, info.About)
				}
			}
			fmt.Fprintln(w, "controllers (feedback decision policies; -controller):")
			for _, info := range fdpsim.ControllerList() {
				fmt.Fprintf(w, "  %-14s [%s] %s\n", info.Name, strings.Join(info.Tags, ","), info.Description)
			}
		})
	}

	opts := []fdpsim.Option{
		fdpsim.WithWorkload(*workloadName),
		fdpsim.WithInsts(*insts),
		fdpsim.WithSeed(*seed),
	}
	kind := fdpsim.PrefetcherKind(*prefName)
	if !*fdp && kind != fdpsim.PrefNone {
		opts = append(opts, fdpsim.WithFixedAggressiveness(*level))
	}
	if *controller != "" {
		opts = append(opts, fdpsim.WithController(*controller))
	}
	if *ctrlModel != "" {
		if *controller != "" && *controller != "tree" {
			cli.Fatalf(tool, cli.ExitUsage, "-controller-model requires -controller tree, got %q", *controller)
		}
		raw, err := os.ReadFile(*ctrlModel)
		cli.FatalIf(tool, err)
		opts = append(opts, fdpsim.WithControllerModel(raw))
	}
	if !*fdp && *insertAt != "MRU" {
		switch *insertAt {
		case "MID":
			opts = append(opts, fdpsim.WithInsertion(fdpsim.PosMID))
		case "LRU-4":
			opts = append(opts, fdpsim.WithInsertion(fdpsim.PosLRU4))
		case "LRU":
			opts = append(opts, fdpsim.WithInsertion(fdpsim.PosLRU))
		default:
			cli.Fatalf(tool, cli.ExitUsage, "unknown insertion position %q (want MRU, MID, LRU-4 or LRU)", *insertAt)
		}
	}
	cfg, err := fdpsim.NewConfig(kind, opts...)
	cli.FatalIf(tool, err)
	if *dynIns {
		cfg.FDP.DynamicInsertion = true
	}
	if *memlat != 0 {
		scale := float64(*memlat) / 500
		cfg.DRAM.RowHit = uint64(float64(cfg.DRAM.RowHit) * scale)
		cfg.DRAM.RowConflict = uint64(float64(cfg.DRAM.RowConflict) * scale)
	}
	if *l2kb != 0 {
		cfg.L2Blocks = *l2kb * 1024 / 64
	}

	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		cli.FatalIf(tool, err)
		if err := json.Unmarshal(raw, &cfg); err != nil {
			// A config file that does not parse is bad input, not a
			// runtime failure: exit 2 like any other invalid configuration.
			cli.Fatalf(tool, cli.ExitUsage, "parsing %s: %v", *configPath, err)
		}
	}
	if *attr {
		cfg.Attribution = true
	}
	if *dumpConfig {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		cli.FatalIf(tool, enc.Encode(cfg))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	finishTrace := openTrace(&cfg, *traceOut, *traceFormat)
	for _, finish := range []func(){openDecisionLog(&cfg, *decisionLog), openSeries(&cfg, *seriesOut)} {
		if finish == nil {
			continue
		}
		prev, next := finishTrace, finish
		finishTrace = func() {
			if prev != nil {
				prev()
			}
			next()
		}
	}
	if *progress {
		cfg.Tracer = obs.Tee(cfg.Tracer, progressTracer(cfg))
	}
	stopProf := cli.StartProfiles(tool, *cpuProfile, *memProfile)
	defer stopProf()

	if *cores != "" {
		runMulticore(ctx, cfg, strings.Split(*cores, ","), *jsonOut, finishTrace, stopProf)
		return
	}

	// A multi-lane spec is a multicore run: each lane becomes a core on
	// the shared bus, reported exactly like -cores.
	if sp != nil && *workloadName == sp.Name && sp.Lanes() > 1 {
		mres, merr := fdpsim.RunSpecMulti(ctx, cfg, sp)
		reportMulti(mres, merr, *jsonOut, finishTrace, stopProf)
		return
	}

	var res fdpsim.Result
	if sp != nil && *workloadName == sp.Name {
		res, err = fdpsim.RunSpec(ctx, cfg, sp)
	} else {
		res, err = fdpsim.RunContext(ctx, cfg)
	}
	stopProf() // before os.Exit below, and before report rendering
	if finishTrace != nil {
		finishTrace() // flush even a partial trace; it matches the partial result
	}
	code := cli.ExitCode(err)
	if err != nil && !errors.Is(err, fdpsim.ErrCancelled) {
		cli.Fatalf(tool, code, "%v", err)
	}
	if *jsonOut {
		emitJSON(res)
		os.Exit(code)
	}

	mode := "conventional"
	if *fdp {
		mode = "FDP (dynamic aggressiveness + dynamic insertion)"
		if res.Controller != "" && res.Controller != "fdp" {
			mode = fmt.Sprintf("FDP loop, %s controller", res.Controller)
		}
	} else if kind == fdpsim.PrefNone {
		mode = "no prefetching"
	} else {
		mode = fmt.Sprintf("conventional, %s", prefetch.LevelName(*level))
	}
	if res.Partial {
		var ce *fdpsim.CancelError
		if errors.As(err, &ce) {
			fmt.Printf("run cancelled after %d of %d instructions (%v) — partial metrics:\n",
				ce.Retired, ce.Target, ce.Cause)
		}
	}
	fmt.Printf("workload   : %s — %s\n", res.Workload, workload.About(res.Workload))
	fmt.Printf("prefetcher : %s (%s)\n", res.Prefetcher, mode)
	fmt.Printf("IPC        : %.4f\n", res.IPC)
	fmt.Printf("BPKI       : %.2f\n", res.BPKI)
	fmt.Printf("accuracy   : %.1f%%   lateness: %.1f%%   pollution: %.1f%%\n",
		100*res.Accuracy, 100*res.Lateness, 100*res.Pollution)
	fmt.Printf("elapsed    : %s\n", res.Elapsed.Round(time.Millisecond))
	if *fdp {
		fmt.Printf("intervals  : %d   final level: %d (%s)\n",
			res.Intervals, res.FinalLevel, prefetch.LevelName(res.FinalLevel))
		fmt.Printf("%s\n%s\n", res.LevelDist, res.InsertDist)
	}
	if res.Attribution != nil {
		printAttribution(res.Attribution)
	}
	if *verbose {
		c := res.Counters
		fmt.Printf("cycles=%d retired=%d loads=%d stores=%d\n", c.Cycles, c.Retired, c.RetiredLoads, c.RetiredStores)
		fmt.Printf("L1: %d accesses, %d misses; L2 demand: %d accesses, %d misses\n",
			c.L1Accesses, c.L1Misses, c.L2DemandAccesses, c.L2DemandMisses)
		fmt.Printf("bus: %d reads, %d prefetches, %d writebacks\n", c.BusReads, c.BusPrefetches, c.BusWritebacks)
		fmt.Printf("pref: issued=%d dropped=%d sent=%d used=%d late=%d filled=%d\n",
			c.PrefIssued, c.PrefDropped, c.PrefSent, c.PrefUsed, c.PrefLate, c.PrefetchFilled)
		fmt.Printf("pollution hits=%d useful evictions=%d\n", c.PollutionHits, c.UsefulEvicted)
	}
	os.Exit(code)
}
