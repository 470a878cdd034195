// Command perfbench is fdpsim's layered benchmark. It runs one workload
// for a time budget, checks every simulated output against the digests
// checked in beside it, and prints its metrics, each with a unit, as one
// JSON object on the last line of standard output:
//
//	cd perfbench && go build -o perfbench.bin .
//	./perfbench.bin -workload stream -seed 1 -seconds 12 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with every
// seam off. With -trace 1 it makes the same untraced passes, then one
// traced pass with every seam on, and prints the per-layer metrics. See
// README.md in this directory for the workloads, the metrics and which
// layer metric should move which end-to-end metric.
//
// -regen FILE rewrites the digest table (every variant of every run, at
// every scale); run it only when a change is meant to alter simulated
// results.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"fdpsim/internal/sim"
	"fdpsim/internal/store"
	"fdpsim/internal/workload/spec"
)

// runSlack is how long a run may take beyond its time budget before
// everything it started is cancelled.
const runSlack = 120 * time.Second

// setupMin is the set-up time a run spends at least, repeating a cheap
// set-up. A set-up shorter than setupBatch is timed in a batch of repeats
// that lasts at least that long, and counts as the batch's mean.
const (
	setupMin   = 50 * time.Millisecond
	setupBatch = time.Millisecond
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees,
// measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"minsts_per_s", "Minst/s"},
	{"norm_ns_per_inst", "ratio"},
	{"allocs_per_minst", "allocs/Minst"},
	{"peak_rss_mb", "MiB"},
	{"ipc", "inst/cycle"},
	{"bpki", "acc/kinst"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"trace.next_ns", "ns"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"prefetch.observe_ns", "ns"},
	{"prefetch.observes_per_kinst", "1/kinst"},
	{"prefetch.issued_per_observe", "ratio"},
	{"prefetch.accuracy", "ratio"},
	{"prefetch.lateness", "ratio"},
	{"cache.l1d_miss_rate", "ratio"},
	{"cache.l2_miss_rate", "ratio"},
	{"cache.mshr_occupancy", "entries"},
	{"cache.l2_replay_ns", "ns"},
	{"mem.bus_util", "ratio"},
	{"mem.row_hit_rate", "ratio"},
	{"mem.queue_occupancy", "entries"},
	{"mem.prefetch_bus_share", "ratio"},
	{"cpu.retire_share", "ratio"},
	{"cpu.stall_load_share", "ratio"},
	{"cpu.stall_dram_bp_share", "ratio"},
	{"cpu.stall_ifetch_share", "ratio"},
	{"core.intervals_per_minst", "1/Minst"},
	{"core.boundary_ns", "ns"},
	{"control.decide_ns", "ns"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.self_ns_per_inst", "ns"},
	{"series.append_ns", "ns"},
	{"series.encode_us", "us"},
	{"series.decode_us", "us"},
	{"series.bytes_per_interval", "B"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.get_series_ms", "ms"},
	{"store.ledger_append_ms", "ms"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.store_ms_p50", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.executions_per_fp", "ratio"},
	{"tracing.overhead", "ratio"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
	scale    string // run sizes: "full", or "tiny" for the self-test
	// digests overrides the checked-in table (tests inject mismatches).
	digests map[string]string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: "full"}
	var traceFlag int
	var regen string
	fs.StringVar(&o.workload, "workload", "", "workload to run: stream, chase, cmp, fabric or fabric-hit")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; it selects the input variant")
	fs.Float64Var(&o.seconds, "seconds", 10, "time budget for the measured passes")
	fs.IntVar(&traceFlag, "trace", 0, "1 = print the per-layer metrics of a traced pass")
	fs.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for recordings and stores")
	fs.StringVar(&regen, "regen", "", "write every variant's digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if regen != "" {
		if err := regenerate(regen, o.dir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o.trace = traceFlag == 1
	rep, err := bench(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// newEnv builds an invocation context for a scale and seed.
func newEnv(o options, stderr io.Writer) (*env, error) {
	sc, ok := scales[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	cmp, err := spec.Parse(cmpYAML)
	if err != nil {
		return nil, fmt.Errorf("cmp.yaml: %w", err)
	}
	digests := o.digests
	if digests == nil {
		if digests, err = loadDigests(); err != nil {
			return nil, err
		}
	}
	return &env{
		ctx: context.Background(), dir: o.dir, sc: sc,
		variant: int(o.seed % variants), digests: digests, cmp: cmp, log: stderr,
	}, nil
}

// bench runs one workload and builds its report.
func bench(o options, stdout, stderr io.Writer) (report, error) {
	e, err := newEnv(o, stderr)
	if err != nil {
		return report{}, err
	}
	// A run that hangs is a failure, not a number: every simulation and
	// request below stops at this deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+runSlack)
	defer cancel()
	e.ctx = ctx
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d variant %d scale %s trace %v\n",
		o.workload, o.seed, e.variant, e.sc.name, o.trace)

	// The timer and reference-loop calibration is the benchmark's own
	// work and stays outside setup_s.
	e.timer = timerCost()
	refLoop()
	runtime.GC()
	refBefore := refSample()
	// Set up several times; setup_s is the median, scaled to reference
	// speed like every other timing. Each set-up rebuilds every input.
	var setups []float64
	var spent time.Duration
	var s *state
	for len(setups) < e.sc.setups || spent < setupMin {
		var d time.Duration
		n := 0
		for err == nil && (n == 0 || d < setupBatch) {
			if s != nil {
				s.cleanup()
			}
			start := time.Now()
			s, err = e.setup(o.workload)
			d += time.Since(start)
			n++
		}
		spent += d
		setups = append(setups, d.Seconds()/float64(n))
		if err != nil {
			if s != nil {
				s.cleanup()
			}
			return report{}, fmt.Errorf("set-up: %w", err)
		}
	}
	defer s.cleanup()
	setup := median(setups)
	setupScaled := hostScale((refBefore+refSample())/2) * setup

	passes := e.measure(s, time.Duration(o.seconds*float64(time.Second)))
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = float64(p.wall.Nanoseconds())
	}

	rep := report{Metrics: map[string]metric{}}
	if o.trace {
		t, err := e.tracedPhase(s, median(walls))
		if err != nil {
			return report{}, err
		}
		for name, v := range e.layerMetrics(t) {
			rep.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
		}
		for _, d := range t.dirs {
			os.RemoveAll(d)
		}
		fmt.Fprintf(stdout, "perfbench: tracing overhead %.3fx (traced %.3fs, untraced %.3fs)\n",
			rep.Metrics["tracing.overhead"].Value, t.wall.Seconds(), t.untraced/1e9)
	} else {
		for name, v := range e.endToEnd(passes, setupScaled) {
			rep.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
		}
		var refs []float64
		for _, p := range passes {
			refs = append(refs, p.refBefore, p.refAfter)
		}
		fmt.Fprintf(stdout, "perfbench: passes %d, ops %d, unscaled wall %.6fs, reference loop %.4f ns/iter (spread %.1f%%), setups %d, unscaled setup %.3gs\n",
			len(passes), countOps(passes), fastQuartile(walls, true)/1e9, median(refs), 100*spread(refs), len(setups), setup)
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			e.tally.attempted++
			e.fail("metric %s is not a number", name)
			m.Value = 0
			rep.Metrics[name] = m
		}
	}
	rep.Attempted, rep.Failed = e.tally.attempted, e.tally.failed
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func countOps(passes []passResult) int {
	n := 0
	for _, p := range passes {
		n += p.ops
	}
	return n
}

// measure makes untraced passes until the budget is spent (at least the
// scale's minimum), timing the reference loop around each and counting
// its heap allocations.
func (e *env) measure(s *state, budget time.Duration) []passResult {
	var passes []passResult
	deadline := time.Now().Add(budget)
	for len(passes) < e.sc.minPasses || time.Now().Before(deadline) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		before := refSample()
		runtime.ReadMemStats(&m0)
		p := e.pass(s, nil, false)
		runtime.ReadMemStats(&m1)
		// Both reference samples see a quiescent heap: otherwise a GC
		// cycle the pass left running would slow the after-sample by an
		// amount that depends on the code under test.
		runtime.GC()
		p.refBefore, p.refAfter = before, refSample()
		p.allocs = m1.Mallocs - m0.Mallocs
		// Keep only the pass's totals: retained results would grow the
		// heap with the pass count and show up in peak_rss_mb.
		p.outcomes, p.round = nil, roundResult{}
		passes = append(passes, p)
		if e.tally.failed > 0 {
			break
		}
	}
	return passes
}

// endToEnd computes the end-to-end metrics. Each timing is taken per pass
// (a pass's wall time or rate) or per run or job of the workload (its
// latency in every pass), scaled to reference speed by the reference loop
// timed around that pass (see hostScale), and summarized by its fast
// quartile; the job percentiles are then taken across the workload's runs
// or jobs. setup is setup_s, already scaled.
func (e *env) endToEnd(passes []passResult, setup float64) map[string]float64 {
	var wall, minsts, norm, allocs, jobs []float64
	var lat [][]float64 // per run or job, its scaled latency in every pass
	for _, p := range passes {
		ref := (p.refBefore + p.refAfter) / 2
		k := hostScale(ref)
		w := p.wall.Seconds()
		insts := float64(p.insts)
		wall = append(wall, k*w)
		minsts = append(minsts, ratio(insts/1e6, k*w))
		norm = append(norm, ratio(ratio(float64(p.wall.Nanoseconds()), insts), ref))
		allocs = append(allocs, ratio(float64(p.allocs), insts/1e6))
		jobs = append(jobs, ratio(float64(p.ops), k*w))
		for j, l := range p.latMS {
			if j == len(lat) {
				lat = append(lat, nil)
			}
			lat[j] = append(lat[j], k*l)
		}
	}
	perJob := make([]float64, len(lat))
	for j := range lat {
		perJob[j] = fastQuartile(lat[j], true)
	}
	last := passes[len(passes)-1]
	return map[string]float64{
		"setup_s":          setup,
		"wall_s":           fastQuartile(wall, true),
		"minsts_per_s":     fastQuartile(minsts, false),
		"norm_ns_per_inst": fastQuartile(norm, true),
		"allocs_per_minst": median(allocs),
		"peak_rss_mb":      peakRSSMB(),
		"ipc":              ratio(float64(last.retired), float64(last.cycles)),
		"bpki":             ratio(1000*float64(last.bus), float64(last.retired)),
		"jobs_per_s":       fastQuartile(jobs, false),
		"job_ms_p50":       quantile(perJob, 0.5),
		"job_ms_p90":       quantile(perJob, 0.9),
	}
}

// tracedPhase makes the traced pass and the service probe, capturing
// everything the per-layer metrics read.
func (e *env) tracedPhase(s *state, untraced float64) (*traced, error) {
	t := &traced{sm: &seams{}, untraced: untraced}
	runtime.GC()
	switch s.name {
	case "fabric":
		p := e.pass(s, nil, true)
		if p.roundStore == nil {
			return nil, errors.New("fabric: no store for the service probe")
		}
		t.dirs = append(t.dirs, p.roundStoreDir)
		t.miss, t.ledger = p.round, p.roundStore
		rr, err := serviceRound(e.ctx, p.roundStore, s.jobs)
		e.checkRound(s.jobs, rr, err, true, p.round.digests())
		t.hit = rr
	case "fabric-hit":
		p := e.pass(s, nil, false)
		t.hit, t.miss, t.ledger = p.round, s.miss, s.store
	default:
		p := e.pass(s, t.sm, false)
		t.wall, t.outcomes = p.wall, p.outcomes
		dir, err := e.tempDir("probe-service-")
		if err != nil {
			return nil, err
		}
		t.dirs = append(t.dirs, dir)
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		miss, err := serviceRound(e.ctx, st, s.jobs)
		e.checkRound(s.jobs, miss, err, false, nil)
		hit, err := serviceRound(e.ctx, st, s.jobs)
		e.checkRound(s.jobs, hit, err, true, miss.digests())
		t.miss, t.hit, t.ledger = miss, hit, st
		return t, nil
	}
	// The simulator layers of a fabric workload are measured on the
	// direct-run twins of its jobs, run once untraced and once traced;
	// both must equal the jobs' results.
	start := time.Now()
	for _, u := range s.units {
		o, err := e.runUnit(u, nil)
		e.check(u.key, o.digest, err)
	}
	t.untraced = float64(time.Since(start).Nanoseconds())
	start = time.Now()
	for _, u := range s.units {
		o, err := e.runUnit(u, t.sm)
		e.check(u.key, o.digest, err)
		t.outcomes = append(t.outcomes, o)
	}
	t.wall = time.Since(start)
	return t, nil
}

// directJob runs a job's configuration directly, as the service would.
func directJob(ctx context.Context, j job) (sim.Result, error) {
	cfg := j.req.BuildConfig()
	if j.req.Spec != nil {
		return sim.RunSpecContext(ctx, cfg, j.req.Spec)
	}
	return sim.RunContext(ctx, cfg)
}

// regenerate recomputes every digest the benchmark checks — each run and
// job of each workload, for every variant at every scale — and writes the
// table to path.
func regenerate(path, dir string, stderr io.Writer) error {
	all := map[string]string{}
	for _, sc := range []string{"full", "tiny"} {
		for v := 0; v < variants; v++ {
			rec, err := regenerateOne(sc, v, dir, stderr)
			if err != nil {
				return err
			}
			for k, d := range rec {
				all[k] = d
			}
		}
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func regenerateOne(scaleName string, variant int, dir string, stderr io.Writer) (map[string]string, error) {
	e, err := newEnv(options{scale: scaleName, seed: uint64(variant), dir: dir, digests: map[string]string{}}, stderr)
	if err != nil {
		return nil, err
	}
	e.record = map[string]string{}
	var jobs []job
	for _, w := range []string{"stream", "chase", "cmp", "fabric"} {
		s, err := e.setup(w)
		if err != nil {
			if s != nil {
				s.cleanup()
			}
			return nil, err
		}
		if w != "fabric" {
			for _, u := range s.units {
				o, err := e.runUnit(u, nil)
				e.check(u.key, o.digest, err)
			}
		}
		jobs = append(jobs, s.jobs...)
		s.cleanup()
	}
	for _, j := range jobs {
		res, err := directJob(e.ctx, j)
		e.check(e.jobKey(j.name), digestResult(&res), err)
	}
	if e.tally.failed > 0 {
		return nil, fmt.Errorf("%s variant %d: %s", scaleName, variant, e.tally.errs[0])
	}
	fmt.Fprintf(stderr, "perfbench: %s variant %d: %d digests\n", scaleName, variant, len(e.record))
	return e.record, nil
}
