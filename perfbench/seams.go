package main

import (
	"time"

	"fdpsim/internal/cpu"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/series"
	"fdpsim/internal/sim"
)

// The seams time each layer from outside, through the public interfaces
// the simulator already accepts: a cpu.Source wrapper, a prefetcher
// wrapper installed as Config.Custom (PrefCustom), and a sim.Tracer that
// feeds a series.Recorder. None of them changes what the simulation
// computes; the traced run's digests prove it.

// seamTime counts calls into one seam and the host time they took.
type seamTime struct {
	calls uint64
	ns    int64
}

func (s *seamTime) add(o seamTime) {
	s.calls += o.calls
	s.ns += o.ns
}

// net returns the seam's time with the calibrated timer cost removed.
func (s seamTime) net(timer float64) float64 {
	v := float64(s.ns) - timer*float64(s.calls)
	if v < 0 {
		return 0
	}
	return v
}

// perCall returns the seam's net ns per call.
func (s seamTime) perCall(timer float64) float64 {
	if s.calls == 0 {
		return 0
	}
	return s.net(timer) / float64(s.calls)
}

// timedSource wraps a micro-op source and times every Next. regen
// rebuilds the in-memory generator behind it (for the replay probes);
// replay marks a source that replays a trace-v2 recording.
type timedSource struct {
	src    cpu.Source
	regen  func() (cpu.Source, error)
	replay bool
	t      seamTime
}

func (s *timedSource) Name() string { return s.src.Name() }

func (s *timedSource) Next() cpu.MicroOp {
	t0 := time.Now()
	op := s.src.Next()
	s.t.ns += int64(time.Since(t0))
	s.t.calls++
	return op
}

// demandCap bounds the L2 demand-block stream one run captures for the
// cache replay probe (8 bytes a block).
const demandCap = 1 << 21

// timedPrefetcher wraps a prefetcher, times Observe, counts what it
// issues, and captures the L2 demand-block stream it is shown.
type timedPrefetcher struct {
	inner  prefetch.Prefetcher
	t      seamTime
	issued uint64
	demand []uint64
}

func (p *timedPrefetcher) Name() string       { return p.inner.Name() }
func (p *timedPrefetcher) SetLevel(level int) { p.inner.SetLevel(level) }
func (p *timedPrefetcher) Level() int         { return p.inner.Level() }

func (p *timedPrefetcher) Observe(ev *prefetch.Event, out []uint64) []uint64 {
	n := len(out)
	t0 := time.Now()
	out = p.inner.Observe(ev, out)
	p.t.ns += int64(time.Since(t0))
	p.t.calls++
	p.issued += uint64(len(out) - n)
	if len(p.demand) < demandCap {
		p.demand = append(p.demand, ev.Block)
	}
	return out
}

// newPrefetcher builds the prefetcher a Config selects, configured the
// way the simulator configures it for that kind.
func newPrefetcher(cfg *sim.Config) prefetch.Prefetcher {
	switch cfg.Prefetcher {
	case sim.PrefStream:
		p := prefetch.NewStream(cfg.StreamEntries)
		p.SetPerStreamRamp(cfg.PerStreamRamp)
		return p
	case sim.PrefGHB:
		return prefetch.NewGHB(256, 256, 1024)
	}
	panic("perfbench: no seam for prefetcher " + string(cfg.Prefetcher))
}

// timedTracer is the run's sim.Tracer: it keeps every DecisionEvent for
// the replay probes and feeds a series.Recorder, timing the append.
type timedTracer struct {
	rec    *series.Recorder
	events []sim.DecisionEvent
	t      seamTime
}

func (t *timedTracer) TraceDecision(ev sim.DecisionEvent) {
	t.events = append(t.events, ev)
	t0 := time.Now()
	t.rec.TraceDecision(ev)
	t.t.ns += int64(time.Since(t0))
	t.t.calls++
}

// seams is everything one traced run installs, per core or thread.
type seams struct {
	sources     []*timedSource
	prefetchers []*timedPrefetcher
	tracers     []*timedTracer
	fdp         []sim.Config // the config each tracer's events came from
}

// instrument turns cfg into its traced twin for core (or thread) index
// core: a wrapped prefetcher, a recording tracer, attribution on.
func (s *seams) instrument(cfg sim.Config, core int) sim.Config {
	p := &timedPrefetcher{inner: newPrefetcher(&cfg)}
	tr := &timedTracer{rec: &series.Recorder{Core: core}}
	s.prefetchers = append(s.prefetchers, p)
	s.tracers = append(s.tracers, tr)
	s.fdp = append(s.fdp, cfg)
	cfg.Prefetcher = sim.PrefCustom
	cfg.Custom = p
	cfg.Tracer = tr
	cfg.Attribution = true
	return cfg
}

// wrap times a source; see timedSource for regen and replay.
func (s *seams) wrap(src cpu.Source, regen func() (cpu.Source, error), replay bool) cpu.Source {
	ts := &timedSource{src: src, regen: regen, replay: replay}
	s.sources = append(s.sources, ts)
	return ts
}
