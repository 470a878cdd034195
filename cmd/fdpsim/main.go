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
//	fdpsim -list
//
// The configuration flags mean what a POST /v1/jobs body's fields mean:
// -prefetcher, -level, -fdp, -dynins and -controller build through the
// same builder (sweep.ConfigAxis.Build). -level takes 1..5 and pins a
// conventional prefetcher; it is ignored with -fdp or -prefetcher none.
//
// -controller swaps the feedback decision policy (the paper's Table 2
// logic, the default) for a registered competitor; -list names them.
// -controller-model loads a decision-tree model file for the "tree"
// controller. Both need -fdp. A -trace-out JSONL decision trace is the
// training data for scripts/train_tree.go (see docs/CONTROLLERS.md).
//
// -spec loads a declarative WorkloadSpec (JSON or YAML; see
// docs/WORKLOADS.md) and runs it straight from the file; -workload then
// defaults to the spec's name. A single-lane spec runs like any workload;
// a multi-lane spec fans its lanes out as cores on the shared bus and
// reports like -cores.
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
	"fdpsim/internal/cache"
	"fdpsim/internal/cli"
	"fdpsim/internal/obs"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/series"
	"fdpsim/internal/stats"
	"fdpsim/internal/sweep"
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

// openSeries wires -series-out into the configuration: the compact
// columnar interval stream (the internal/series binary format), the
// same artifact fdpserved stores as its sidecar and renders at
// GET /v1/jobs/{id}/series and /trace. Composes with -trace-out.
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
// The retire target and the wall clock come from cfg and the tracer's
// own start time, not from the event.
func progressTracer(cfg fdpsim.Config) fdpsim.Tracer {
	start := time.Now()
	return fdpsim.TracerFunc(func(ev fdpsim.DecisionEvent) {
		fmt.Fprintf(os.Stderr, "interval %4d: retired=%9d/%d IPC=%.3f acc=%5.1f%% late=%5.1f%% poll=%5.1f%% level=%d insert=%-5s (%.1fs)\n",
			ev.Interval, ev.Retired, cfg.MaxInsts, ev.IPC(),
			100*ev.Accuracy, 100*ev.Lateness, 100*ev.Pollution, ev.Level(), ev.Insertion, time.Since(start).Seconds())
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

// configFlags are the flags that choose the simulated configuration.
// spec is the -spec file, whose workload name runs without a registry
// entry.
type configFlags struct {
	workload, prefetcher, insert, controller, controllerModel, configPath string
	level, l2kb                                                           int
	fdp, dynIns, attr                                                     bool
	insts, seed, memlat                                                   uint64
	spec                                                                  *fdpsim.WorkloadSpec
}

// buildConfig assembles the run's configuration from the flags. The
// prefetcher choice (-prefetcher, -level, -fdp, -dynins, -controller)
// goes through sweep.ConfigAxis.Build, the builder POST /v1/jobs uses,
// so the CLI and the job API build the same configuration from the same
// choices; the flag-only fields are then set on the result, and the
// whole is validated once. Bad usage reports errors matching
// ErrUnknownWorkload, ErrInvalidConfig or sweep.ErrInvalid (exit code 2).
func buildConfig(f configFlags) (fdpsim.Config, error) {
	// The workload first: an unknown name must fail before any output
	// file is created.
	if !workload.Exists(f.workload) && (f.spec == nil || f.workload != f.spec.Name) {
		return fdpsim.Config{}, fmt.Errorf("%w %q (have %v)", fdpsim.ErrUnknownWorkload, f.workload, workload.Names())
	}
	axis := sweep.ConfigAxis{Prefetcher: f.prefetcher, FDP: f.fdp, DynamicInsertion: f.dynIns, Controller: f.controller}
	if err := cli.SetLevel(&axis, f.level); err != nil {
		return fdpsim.Config{}, err
	}
	if f.controllerModel != "" {
		if f.controller != "" && f.controller != "tree" {
			return fdpsim.Config{}, fmt.Errorf("%w: -controller-model requires -controller tree, got %q", fdpsim.ErrInvalidConfig, f.controller)
		}
		axis.Controller = "tree"
	}
	cfg, err := axis.Build()
	if err != nil {
		return cfg, err
	}
	cfg.Workload, cfg.MaxInsts, cfg.Seed = f.workload, f.insts, f.seed
	if f.controllerModel != "" {
		if cfg.ControllerModel, err = os.ReadFile(f.controllerModel); err != nil {
			return cfg, err
		}
	}
	if !f.fdp {
		pos, ok := cache.ParseInsertPos(f.insert)
		if !ok {
			return cfg, fmt.Errorf("%w: unknown insertion position %q (want MRU, MID, LRU-4 or LRU)", fdpsim.ErrInvalidConfig, f.insert)
		}
		cfg.FDP.StaticInsertion = pos
	}
	if f.memlat != 0 {
		scale := float64(f.memlat) / 500
		cfg.DRAM.RowHit = uint64(float64(cfg.DRAM.RowHit) * scale)
		cfg.DRAM.RowConflict = uint64(float64(cfg.DRAM.RowConflict) * scale)
	}
	if f.l2kb != 0 {
		cfg.L2Blocks = f.l2kb * 1024 / 64
	}
	if f.configPath != "" {
		raw, err := os.ReadFile(f.configPath)
		if err != nil {
			return cfg, err
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			// A config file that does not parse is bad input, not a
			// runtime failure: exit 2 like any other invalid configuration.
			return cfg, fmt.Errorf("%w: parsing %s: %v", fdpsim.ErrInvalidConfig, f.configPath, err)
		}
	}
	if f.attr {
		cfg.Attribution = true
	}
	return cfg, cfg.Validate()
}

func main() {
	var cf configFlags
	flag.StringVar(&cf.workload, "workload", "seqstream", "workload name (see -list)")
	flag.StringVar(&cf.prefetcher, "prefetcher", "stream", "prefetcher: none, stream, ghb, stride, nextline, dahlgren, hybrid")
	flag.IntVar(&cf.level, "level", 5, "static aggressiveness 1..5 (ignored with -fdp or -prefetcher none)")
	flag.BoolVar(&cf.fdp, "fdp", false, "enable full FDP (dynamic aggressiveness + insertion)")
	flag.BoolVar(&cf.dynIns, "dynins", false, "enable only dynamic insertion (static level)")
	flag.StringVar(&cf.insert, "insert", "MRU", "static insertion position: MRU, MID, LRU-4, LRU")
	flag.Uint64Var(&cf.insts, "insts", 1_000_000, "instructions to retire")
	flag.Uint64Var(&cf.memlat, "memlat", 0, "scale DRAM latencies to target this minimum main-memory latency (0 = baseline 500)")
	flag.IntVar(&cf.l2kb, "l2kb", 0, "L2 size in KB (0 = baseline 1024)")
	flag.Uint64Var(&cf.seed, "seed", 1, "workload seed")
	flag.StringVar(&cf.configPath, "config", "", "JSON file overriding the assembled configuration")
	flag.BoolVar(&cf.attr, "attr", false, "enable cycle accounting & bandwidth attribution (stall/bus breakdown in the report, per-interval samples in traces)")
	flag.StringVar(&cf.controller, "controller", "", "feedback decision policy, with -fdp (see -list; empty = the paper's Table 2 policy)")
	flag.StringVar(&cf.controllerModel, "controller-model", "", "decision-tree model JSON file (selects -controller tree; needs -fdp)")
	var (
		specPath    = flag.String("spec", "", "WorkloadSpec file (JSON/YAML) to run (multi-lane specs fan out like -cores)")
		list        = flag.Bool("list", false, "list workloads and exit")
		verbose     = flag.Bool("v", false, "print raw counters")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON")
		cores       = flag.String("cores", "", "comma-separated workloads for a multi-core run on a shared bus")
		dumpConfig  = flag.Bool("dumpconfig", false, "print the assembled configuration as JSON and exit")
		timeout     = flag.Duration("timeout", 0, "deadline; expiry stops the run and prints partial metrics (0 = none)")
		progress    = flag.Bool("progress", false, "stream per-FDP-interval telemetry to stderr")
		traceOut    = flag.String("trace-out", "", "write the FDP decision trace (one event per sampling interval) to this file")
		traceFormat = flag.String("trace-format", "jsonl", "decision trace format: jsonl or chrome (Perfetto-loadable)")
		seriesOut   = flag.String("series-out", "", "write the compact columnar interval timeseries (internal/series binary) to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProfile  = flag.String("memprofile", "", "write a post-run heap profile to this file")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cli.PrintVersion(tool)
		return
	}

	cf.spec = cli.LoadSpec(tool, *specPath, &cf.workload)

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
			fmt.Fprintln(w, "controllers (feedback decision policies; -controller):")
			for _, info := range fdpsim.ControllerList() {
				fmt.Fprintf(w, "  %-14s [%s] %s\n", info.Name, strings.Join(info.Tags, ","), info.Description)
			}
		})
	}

	cfg, err := buildConfig(cf)
	cli.FatalIf(tool, err)
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
	if finishSeries := openSeries(&cfg, *seriesOut); finishSeries != nil {
		prev := finishTrace
		finishTrace = func() {
			if prev != nil {
				prev()
			}
			finishSeries()
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
	sp := cf.spec
	runsSpec := sp != nil && cf.workload == sp.Name
	if runsSpec && sp.Lanes() > 1 {
		mres, merr := fdpsim.RunSpecMulti(ctx, cfg, sp)
		reportMulti(mres, merr, *jsonOut, finishTrace, stopProf)
		return
	}

	var res fdpsim.Result
	about := workload.About(cfg.Workload)
	if runsSpec {
		res, err = fdpsim.RunSpec(ctx, cfg, sp)
		about = sp.About
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
	if cf.fdp {
		mode = "FDP (dynamic aggressiveness + dynamic insertion)"
		if res.Controller != "" && res.Controller != "fdp" {
			mode = fmt.Sprintf("FDP loop, %s controller", res.Controller)
		}
	} else if cf.prefetcher == string(fdpsim.PrefNone) {
		mode = "no prefetching"
	} else {
		mode = fmt.Sprintf("conventional, %s", prefetch.LevelName(cf.level))
	}
	if res.Partial {
		var ce *fdpsim.CancelError
		if errors.As(err, &ce) {
			fmt.Printf("run cancelled after %d of %d instructions (%v) — partial metrics:\n",
				ce.Retired, ce.Target, ce.Cause)
		}
	}
	fmt.Printf("workload   : %s — %s\n", res.Workload, about)
	fmt.Printf("prefetcher : %s (%s)\n", res.Prefetcher, mode)
	fmt.Printf("IPC        : %.4f\n", res.IPC)
	fmt.Printf("BPKI       : %.2f\n", res.BPKI)
	fmt.Printf("accuracy   : %.1f%%   lateness: %.1f%%   pollution: %.1f%%\n",
		100*res.Accuracy, 100*res.Lateness, 100*res.Pollution)
	fmt.Printf("elapsed    : %s\n", res.Elapsed.Round(time.Millisecond))
	if cf.fdp {
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
