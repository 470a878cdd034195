package main

import (
	"context"
	_ "embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fdpsim/internal/cpu"
	"fdpsim/internal/service"
	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
	"fdpsim/internal/store"
	"fdpsim/internal/trace"
	"fdpsim/internal/workload"
	"fdpsim/internal/workload/spec"
)

//go:embed cmp.yaml
var cmpYAML []byte

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"stream", "chase", "cmp", "fabric", "fabric-hit"}

// variants is how many distinct input sets the seed selects from: the
// seed picks variant seed%variants, whose simulation seed is 1+variant.
// Every variant's outputs are checked in (digests.json).
const variants = 8

// scale fixes the size of every simulated run. The benchmark runs at
// "full"; the self-test runs at "tiny". Sizes never depend on the time
// budget: a longer run makes more passes over the same runs.
type scale struct {
	name                    string
	streamWarm, streamInsts uint64
	chaseWarm, chaseInsts   uint64
	cmpWarm, cmpInsts       uint64
	jobWarm, jobInsts       uint64
	setups                  int // least set-ups per run; setup_s is their median
	minPasses               int
}

var scales = map[string]scale{
	"full": {name: "full",
		streamWarm: 600_000, streamInsts: 400_000,
		chaseWarm: 50_000, chaseInsts: 150_000,
		cmpWarm: 10_000, cmpInsts: 25_000,
		jobWarm: 20_000, jobInsts: 80_000,
		setups: 3, minPasses: 3},
	"tiny": {name: "tiny",
		streamWarm: 10_000, streamInsts: 20_000,
		chaseWarm: 5_000, chaseInsts: 10_000,
		cmpWarm: 2_000, cmpInsts: 5_000,
		jobWarm: 2_000, jobInsts: 5_000,
		setups: 1, minPasses: 1},
}

// traceSlack is how many micro-ops a recording holds beyond the run's
// retire target: the core fetches up to a ROB ahead of retirement.
const traceSlack = 4096

type unitKind int

const (
	single unitKind = iota // one core: RunContext, or RunSourceContext over a recording
	multi                  // spec lanes on cores sharing a bus: RunSpecMultiContext
	smt                    // spec lanes as threads over one hierarchy: RunSpecSMTContext
)

// unit is one simulated run of a pass.
type unit struct {
	name  string // e.g. "stream-seqstream-stream"
	key   string // digest key: name, scale and variant
	kind  unitKind
	cfg   sim.Config
	trace string     // single: recording replayed as the source ("" = generate in memory)
	spec  *spec.Spec // multi, smt
}

// outcome is what one simulated run produced.
type outcome struct {
	digest      string
	insts       uint64 // simulated instructions retired, warm-up included
	retired     uint64 // post-warm-up
	cycles      uint64 // post-warm-up, summed over cores
	allCycles   uint64 // every simulated cycle, warm-up included (estimated for one core)
	bus         uint64 // bus accesses, post-warm-up
	counters    []stats.Counters
	attribution []*stats.Attribution
	results     []sim.Result // single-core results (one per core for multi)
}

// env is one benchmark invocation's context.
type env struct {
	ctx     context.Context
	dir     string // scratch root for recordings and stores
	sc      scale
	variant int
	digests map[string]string
	// record, when non-nil, collects digests instead of checking them
	// (the -regen mode that writes digests.json).
	record map[string]string
	timer  float64 // calibrated timer cost, ns
	cmp    *spec.Spec
	tally  tally
	log    io.Writer
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
	errs              []string
}

func (e *env) fail(format string, args ...any) {
	e.tally.failed++
	msg := fmt.Sprintf(format, args...)
	if len(e.tally.errs) < 20 {
		e.tally.errs = append(e.tally.errs, msg)
	}
	fmt.Fprintln(e.log, "perfbench: FAIL:", msg)
}

// check records one simulated output against its checked-in digest.
func (e *env) check(key, digest string, err error) {
	e.tally.attempted++
	switch {
	case err != nil:
		e.fail("%s: %v", key, err)
	case e.record != nil:
		if prev, ok := e.record[key]; ok && prev != digest {
			e.fail("%s: nondeterministic digest", key)
		}
		e.record[key] = digest
	case e.digests[key] == "":
		e.fail("%s: no checked-in digest", key)
	case e.digests[key] != digest:
		e.fail("%s: digest %.12s, checked in %.12s", key, digest, e.digests[key])
	}
}

func (e *env) simSeed() uint64 { return 1 + uint64(e.variant) }

func (e *env) newUnit(name string, kind unitKind, cfg sim.Config) unit {
	return unit{name: name, key: fmt.Sprintf("%s/run/%s/v%d", e.sc.name, name, e.variant), kind: kind, cfg: cfg}
}

func (e *env) jobKey(name string) string {
	return fmt.Sprintf("%s/job/%s/v%d", e.sc.name, name, e.variant)
}

// state is a workload after set-up.
type state struct {
	name  string
	units []unit // a sim workload's pass; for fabric, the direct-run twins of the jobs
	jobs  []job  // fabric's pass, or a sim workload's service probe
	// fabric-hit: the store the set-up populated, and its miss round.
	store *store.Store
	miss  roundResult
	dirs  []string // scratch directories to remove
}

func (s *state) cleanup() {
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.dir, prefix)
}

// fdpConfig is the FDP configuration every benchmark run uses.
func (e *env) fdpConfig(w string, pf sim.PrefetcherKind, warm, insts uint64) sim.Config {
	cfg := sim.WithFDP(pf)
	cfg.Workload = w
	cfg.Seed = e.simSeed()
	cfg.WarmupInsts = warm
	cfg.MaxInsts = insts
	return cfg
}

// streamUnits: bandwidth-bound programs under FDP.
func (e *env) streamUnits() []unit {
	var us []unit
	for _, p := range []struct {
		w  string
		pf sim.PrefetcherKind
	}{{"seqstream", sim.PrefStream}, {"multistream", sim.PrefStream}, {"mixedphase", sim.PrefStream}, {"mixedphase", sim.PrefGHB}} {
		cfg := e.fdpConfig(p.w, p.pf, e.sc.streamWarm, e.sc.streamInsts)
		us = append(us, e.newUnit("stream-"+p.w+"-"+string(p.pf), single, cfg))
	}
	return us
}

// chaseUnits: latency-bound and low-potential programs; set-up adds the
// recordings they replay. codewalk and cachefit retire four times the
// instructions of chaserand, which idles through far more cycles per
// instruction, so the three runs cost about the same host time and none
// is too short to time steadily.
func (e *env) chaseUnits() []unit {
	var us []unit
	for _, p := range []struct {
		w     string
		scale uint64
	}{{"chaserand", 1}, {"codewalk", 4}, {"cachefit", 4}} {
		cfg := e.fdpConfig(p.w, sim.PrefStream, e.sc.chaseWarm, p.scale*e.sc.chaseInsts)
		us = append(us, e.newUnit("chase-"+p.w, single, cfg))
	}
	return us
}

// cmpUnits: the checked-in two-lane spec on a shared bus and as SMT
// threads. SMT runs take no warm-up. The spec generates with simulation
// seed 1 in every variant: its random streams make other seeds cost up to
// a sixth more or less host time, which would read as run-to-run noise.
func (e *env) cmpUnits() []unit {
	m := e.fdpConfig(e.cmp.Name, sim.PrefStream, e.sc.cmpWarm, e.sc.cmpInsts)
	s := e.fdpConfig(e.cmp.Name, sim.PrefStream, 0, e.sc.cmpInsts)
	m.Seed, s.Seed = 1, 1
	mu, su := e.newUnit("cmp-multi", multi, m), e.newUnit("cmp-smt", smt, s)
	mu.spec, su.spec = e.cmp, e.cmp
	return []unit{mu, su}
}

// fabricJobs: small FDP jobs over eight programs, each with an interval
// series, all with distinct fingerprints.
func (e *env) fabricJobs() []job {
	var js []job
	for _, p := range []struct{ w, pf string }{
		{"seqstream", "stream"}, {"multistream", "stream"}, {"mixedphase", "ghb"}, {"chaserand", "stream"},
		{"codewalk", "stream"}, {"cachefit", "stream"}, {"hotcold", "stream"}, {"regionwalk", "stream"},
	} {
		js = append(js, job{name: "fabric-" + p.w + "-" + p.pf, req: service.JobRequest{
			Workload: p.w, Prefetcher: p.pf, FDP: true, Series: true,
			Insts: e.sc.jobInsts, Warmup: e.sc.jobWarm, Seed: e.simSeed(),
		}})
	}
	return js
}

// probeJobs turns a sim workload's units into the jobs its service probe
// submits: the same configuration as a named-workload job, or, for a
// multi-lane spec, one single-lane job per lane.
func (e *env) probeJobs(w string, units []unit) []job {
	var js []job
	for _, u := range units {
		req := service.JobRequest{
			Prefetcher: string(u.cfg.Prefetcher), FDP: true, Series: true,
			Insts: u.cfg.MaxInsts, Warmup: u.cfg.WarmupInsts, Seed: u.cfg.Seed,
		}
		switch u.kind {
		case single:
			req.Workload = u.cfg.Workload
			js = append(js, job{name: u.name, req: req})
		case multi:
			for lane := 0; lane < u.spec.Lanes(); lane++ {
				r := req
				r.Spec = laneSpec(u.spec, lane)
				js = append(js, job{name: fmt.Sprintf("%s-lane%d", w, lane), req: r})
			}
		}
	}
	return js
}

// laneSpec projects one lane of a multi-lane spec onto a single-lane spec.
func laneSpec(sp *spec.Spec, lane int) *spec.Spec {
	out := &spec.Spec{Name: fmt.Sprintf("%s.lane%d", sp.Name, lane), About: sp.About}
	for _, ph := range sp.Phases {
		p := spec.Phase{Name: ph.Name, Ops: ph.Ops}
		for _, c := range ph.Clients {
			if c.Lane == lane {
				c.Lane = 0
				p.Clients = append(p.Clients, c)
			}
		}
		out.Phases = append(out.Phases, p)
	}
	return out
}

// jobUnits are the direct-run twins of jobs: the run each job's result
// must equal.
func (e *env) jobUnits(js []job) []unit {
	var us []unit
	for _, j := range js {
		cfg := j.req.BuildConfig()
		us = append(us, unit{name: j.name, key: e.jobKey(j.name), cfg: cfg})
	}
	return us
}

// setup prepares a workload's inputs: runs, jobs, recordings and stores.
func (e *env) setup(w string) (*state, error) {
	s := &state{name: w}
	switch w {
	case "stream":
		s.units = e.streamUnits()
		s.jobs = e.probeJobs(w, s.units)
	case "chase":
		s.units = e.chaseUnits()
		s.jobs = e.probeJobs(w, s.units)
		dir, err := e.tempDir("traces-")
		if err != nil {
			return s, err
		}
		s.dirs = append(s.dirs, dir)
		for i := range s.units {
			u := &s.units[i]
			u.trace = filepath.Join(dir, u.cfg.Workload+".trc")
			if err := record(u.trace, u.cfg, u.cfg.WarmupInsts+u.cfg.MaxInsts+traceSlack); err != nil {
				return s, err
			}
		}
	case "cmp":
		s.units = e.cmpUnits()
		s.jobs = e.probeJobs(w, s.units)
	case "fabric", "fabric-hit":
		s.jobs = e.fabricJobs()
		s.units = e.jobUnits(s.jobs)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", w, strings.Join(workloadNames, ", "))
	}
	if w == "fabric" {
		// Start and stop one server over a fresh store: the service's
		// start-up cost, which every measured pass also pays untimed.
		dir, err := e.tempDir("store-")
		if err != nil {
			return s, err
		}
		s.dirs = append(s.dirs, dir)
		st, err := store.Open(dir)
		if err != nil {
			return s, err
		}
		if _, err := serviceRound(e.ctx, st, nil); err != nil {
			return s, err
		}
	}
	if w == "fabric-hit" {
		dir, err := e.tempDir("store-")
		if err != nil {
			return s, err
		}
		s.dirs = append(s.dirs, dir)
		if s.store, err = store.Open(dir); err != nil {
			return s, err
		}
		rr, err := serviceRound(e.ctx, s.store, s.jobs)
		e.checkRound(s.jobs, rr, err, false, nil)
		s.miss = rr
	}
	return s, nil
}

// record writes a workload's first n micro-ops as a trace-v2 file.
func record(path string, cfg sim.Config, n uint64) error {
	src, err := workload.New(cfg.Workload, cfg.Seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriterV2(f, cfg.Workload)
	if err != nil {
		f.Close()
		return err
	}
	for i := uint64(0); i < n; i++ {
		if err := w.Write(src.Next()); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runUnit executes one run, through the seams when sm is non-nil.
func (e *env) runUnit(u unit, sm *seams) (outcome, error) {
	switch u.kind {
	case multi:
		return e.runMulti(u, sm)
	case smt:
		return e.runSMT(u, sm)
	}
	cfg := u.cfg
	var src cpu.Source
	var replay trace.ReplaySource
	if u.trace != "" {
		f, err := os.Open(u.trace)
		if err != nil {
			return outcome{}, err
		}
		defer f.Close()
		if replay, err = trace.Open(f); err != nil {
			return outcome{}, err
		}
		src = replay
	}
	if sm != nil {
		regen := func() (cpu.Source, error) { return workload.New(cfg.Workload, cfg.Seed) }
		if src == nil {
			var err error
			if src, err = regen(); err != nil {
				return outcome{}, err
			}
		}
		src = sm.wrap(src, regen, replay != nil)
		cfg = sm.instrument(cfg, 0)
	}
	var res sim.Result
	var err error
	if src == nil {
		res, err = sim.RunContext(e.ctx, cfg)
	} else {
		res, err = sim.RunSourceContext(e.ctx, cfg, src)
	}
	if err != nil {
		return outcome{}, err
	}
	if replay != nil && replay.Exhausted() {
		return outcome{}, fmt.Errorf("recording %s ran out before the retire target", u.trace)
	}
	o := outcome{digest: digestResult(&res)}
	o.addCore(&res, cfg.WarmupInsts)
	o.allCycles = scaleCycles(res.Counters.Cycles, o.insts, o.retired)
	return o, nil
}

// addCore folds one core's result into the outcome.
func (o *outcome) addCore(r *sim.Result, warm uint64) {
	o.insts += warm + r.Counters.Retired
	o.retired += r.Counters.Retired
	o.cycles += r.Counters.Cycles
	o.bus += r.Counters.BusAccesses()
	o.counters = append(o.counters, r.Counters)
	o.attribution = append(o.attribution, r.Attribution)
	o.results = append(o.results, *r)
}

// scaleCycles estimates a one-core run's total cycles from its post-warm-
// up cycles at the measured cycles per instruction.
func scaleCycles(cycles, insts, retired uint64) uint64 {
	if retired == 0 {
		return cycles
	}
	return uint64(float64(cycles) * float64(insts) / float64(retired))
}

func (e *env) runMulti(u unit, sm *seams) (outcome, error) {
	var res sim.MultiResult
	var err error
	if sm == nil {
		res, err = sim.RunSpecMultiContext(e.ctx, u.cfg, u.spec)
	} else {
		tmpl := u.cfg
		tmpl.Workload = u.spec.Name
		srcs := u.spec.Sources(tmpl.Seed)
		mc := sim.MultiConfig{}
		for i := range srcs {
			lane := i
			regen := func() (cpu.Source, error) { return u.spec.Source(lane, tmpl.Seed), nil }
			srcs[i] = sm.wrap(srcs[i], regen, false)
			mc.Cores = append(mc.Cores, sm.instrument(tmpl, i))
		}
		mc.Sources = srcs
		res, err = sim.RunMultiContext(e.ctx, mc)
	}
	if err != nil {
		return outcome{}, err
	}
	o := outcome{digest: digestMulti(&res), allCycles: res.Cycles}
	for i := range res.Cores {
		o.addCore(&res.Cores[i].Result, u.cfg.WarmupInsts)
	}
	return o, nil
}

func (e *env) runSMT(u unit, sm *seams) (outcome, error) {
	var res sim.SMTResult
	var err error
	if sm == nil {
		res, err = sim.RunSpecSMTContext(e.ctx, u.cfg, u.spec)
	} else {
		cfg := sim.SMTConfig{Base: sm.instrument(u.cfg, 0), Sources: u.spec.Sources(u.cfg.Seed)}
		for i := range cfg.Sources {
			lane := i
			regen := func() (cpu.Source, error) { return u.spec.Source(lane, u.cfg.Seed), nil }
			cfg.Sources[i] = sm.wrap(cfg.Sources[i], regen, false)
			cfg.Workloads = append(cfg.Workloads, u.spec.Name)
		}
		res, err = sim.RunSMTContext(e.ctx, cfg)
	}
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		digest: digestSMT(&res), insts: res.Counters.Retired, retired: res.Counters.Retired,
		cycles: res.Cycles, allCycles: res.Cycles, bus: res.Counters.BusAccesses(),
		counters: []stats.Counters{res.Counters},
	}
	return o, nil
}

// passResult is one measured pass over a workload.
type passResult struct {
	wall          time.Duration
	insts         uint64
	retired       uint64
	cycles        uint64
	bus           uint64
	latMS         []float64 // per run or per job
	ops           int
	allocs        uint64
	refBefore     float64
	refAfter      float64
	outcomes      []outcome
	round         roundResult
	roundStore    *store.Store
	roundStoreDir string
}

func (p *passResult) add(o outcome) {
	p.insts += o.insts
	p.retired += o.retired
	p.cycles += o.cycles
	p.bus += o.bus
	p.outcomes = append(p.outcomes, o)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pass runs a workload once. sm, when non-nil, is the traced pass's seams
// (sim workloads only). keepStore keeps a fabric miss round's store for
// the service probe.
func (e *env) pass(s *state, sm *seams, keepStore bool) passResult {
	switch s.name {
	case "fabric":
		return e.fabricMissPass(s, keepStore)
	case "fabric-hit":
		return e.fabricHitPass(s)
	}
	var p passResult
	start := time.Now()
	for _, u := range s.units {
		t0 := time.Now()
		o, err := e.runUnit(u, sm)
		p.latMS = append(p.latMS, ms(time.Since(t0)))
		e.check(u.key, o.digest, err)
		p.add(o)
		p.ops++
	}
	p.wall = time.Since(start)
	return p
}

func (e *env) fabricMissPass(s *state, keepStore bool) passResult {
	var p passResult
	dir, err := e.tempDir("store-")
	if err == nil {
		p.roundStore, err = store.Open(dir)
	}
	if err != nil {
		e.tally.attempted++
		e.fail("fabric store: %v", err)
		return p
	}
	rr, err := serviceRound(e.ctx, p.roundStore, s.jobs)
	e.checkRound(s.jobs, rr, err, false, nil)
	p.fromRound(s.jobs, rr)
	if keepStore {
		p.roundStoreDir = dir
	} else {
		os.RemoveAll(dir)
		p.roundStore = nil
	}
	return p
}

// hitRounds is how many fresh servers a fabric-hit pass starts over the
// filled store, one hit round each: a single round of cache hits lasts a
// few milliseconds, too short to time steadily on its own.
const hitRounds = 8

func (e *env) fabricHitPass(s *state) passResult {
	var p passResult
	want := s.miss.digests()
	for r := 0; r < hitRounds; r++ {
		rr, err := serviceRound(e.ctx, s.store, s.jobs)
		e.checkRound(s.jobs, rr, err, true, want)
		p.fromRound(s.jobs, rr)
	}
	return p
}

// fromRound adds a service round to a pass: its client-side wall time,
// one op per job, and the simulated work the results carry.
func (p *passResult) fromRound(js []job, rr roundResult) {
	p.wall += rr.wall
	p.round = rr
	for i, o := range rr.jobs {
		p.ops++
		p.latMS = append(p.latMS, ms(o.latency))
		if r := o.status.Result; r != nil {
			var oc outcome
			oc.addCore(r, js[i].req.Warmup)
			oc.digest = digestResult(r)
			p.add(oc)
		}
	}
}

// checkRound checks a service round: every job done with the checked-in
// result, hits exactly where expected (and equal to want, the miss
// round's digests, when given), and one execution per fingerprint on a
// miss round, none on a hit round.
func (e *env) checkRound(js []job, rr roundResult, err error, hit bool, want []string) {
	if err != nil {
		e.tally.attempted++
		e.fail("service round: %v", err)
	}
	for i, o := range rr.jobs {
		key := e.jobKey(js[i].name)
		var digest string
		if o.err == nil {
			digest = digestResult(o.status.Result)
		}
		e.check(key, digest, o.err)
		if o.err != nil {
			continue
		}
		if o.status.CacheHit != hit {
			e.fail("%s: cache_hit=%v, want %v", key, o.status.CacheHit, hit)
		}
		if want != nil && want[i] != digest {
			e.fail("%s: hit result differs from its miss result", key)
		}
	}
	wantExec := uint64(len(js))
	if hit {
		wantExec = 0
	}
	e.tally.attempted++
	if rr.executions != wantExec {
		e.fail("service executed %d simulations for %d fingerprints (want %d)", rr.executions, len(js), wantExec)
	}
}
