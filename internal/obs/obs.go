// Package obs holds the observability sinks for the simulator's FDP
// decision trace: consumers of sim.DecisionEvent streams (see
// sim.Tracer) that turn per-interval feedback decisions into artifacts a
// human can read.
//
//   - JSONL streams one JSON object per interval boundary — the grep-able,
//     jq-able format the fdpsim CLI writes with -trace-out and the job
//     service serves at GET /v1/jobs/{id}/trace.
//   - Chrome exports the Chrome trace_event format with counter tracks for
//     accuracy, lateness, pollution, the DCC and the prefetch distance and
//     degree, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//   - Collector retains events in memory (the job service's per-job
//     buffer, also convenient in tests).
//
// All sinks implement sim.Tracer and are driven synchronously from the
// simulation loop, so a slow consumer slows the run.
package obs

import (
	"sync"

	"fdpsim/internal/sim"
)

// Collector retains every event in memory, bounded by Limit. It is
// safe for concurrent use (the job service reads while a worker
// appends).
type Collector struct {
	// Limit, when non-zero, caps the number of retained events; later
	// events increment Truncated instead of growing the buffer. Set it
	// before tracing starts.
	Limit int

	mu        sync.Mutex
	events    []sim.DecisionEvent
	truncated uint64
}

// TraceDecision implements sim.Tracer.
func (c *Collector) TraceDecision(ev sim.DecisionEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Limit > 0 && len(c.events) >= c.Limit {
		c.truncated++
		return
	}
	c.events = append(c.events, ev)
}

// Events returns a snapshot copy of the collected events.
func (c *Collector) Events() []sim.DecisionEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sim.DecisionEvent, len(c.events))
	copy(out, c.events)
	return out
}

// Truncated reports how many events the Limit discarded.
func (c *Collector) Truncated() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.truncated
}

// tee fans one decision stream out to several sinks, in order.
type tee struct {
	sinks []sim.Tracer
}

// TraceDecision implements sim.Tracer.
func (t *tee) TraceDecision(ev sim.DecisionEvent) {
	for _, s := range t.sinks {
		s.TraceDecision(ev)
	}
}

// Tee combines tracers into one that delivers every event to each, in
// argument order. Nil entries are dropped; zero or one live sink returns
// nil or the sink itself, so callers can compose unconditionally without
// paying a fan-out wrapper for the common single-sink case.
func Tee(sinks ...sim.Tracer) sim.Tracer {
	live := make([]sim.Tracer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tee{sinks: live}
}
