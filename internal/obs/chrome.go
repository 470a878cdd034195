package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"fdpsim/internal/cache"
	"fdpsim/internal/sim"
)

// Chrome streams DecisionEvents in the Chrome trace_event format
// (the JSON object form: {"traceEvents":[...]}), loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Each interval boundary becomes
// one point on six counter tracks — accuracy/lateness/pollution (percent),
// the DCC, the Table 1 (distance, degree) pair and the insertion depth —
// plus one instant event carrying the Table 2 case and its rationale, so
// the feedback loop's trajectory can be scrubbed on a timeline.
//
// Timestamps are simulated cycles interpreted as microseconds (the format
// has no "cycles" unit); relative spacing is what matters. Cores map to
// trace processes, so multi-core runs get per-core track groups.
type Chrome struct {
	chromeDoc
	seenCore map[int]bool
}

// chromeDoc writes one trace_event document: the header, the
// comma-joined events and the footer. Its first error sticks, and every
// later write is a no-op.
type chromeDoc struct {
	bw  *bufio.Writer
	err error
	n   int
}

func newChromeDoc(w io.Writer) chromeDoc {
	d := chromeDoc{bw: bufio.NewWriter(w)}
	_, d.err = d.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return d
}

// emit appends one event.
func (d *chromeDoc) emit(ev any) {
	if d.err != nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		d.err = fmt.Errorf("obs: chrome encode: %w", err)
		return
	}
	if d.n > 0 {
		if d.err = d.bw.WriteByte(','); d.err != nil {
			return
		}
	}
	_, d.err = d.bw.Write(raw)
	d.n++
}

// close terminates the document, flushes it and returns the sticky error.
func (d *chromeDoc) close() error {
	if d.err == nil {
		_, d.err = d.bw.WriteString("]}")
	}
	if err := d.bw.Flush(); err != nil && d.err == nil {
		d.err = fmt.Errorf("obs: chrome flush: %w", err)
	}
	return d.err
}

// chromeEvent is one trace_event record; fields beyond the five required
// ones are omitted when empty.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewChrome returns a Chrome trace sink over w. The caller owns w; Close
// terminates the JSON document and flushes but does not close it.
func NewChrome(w io.Writer) *Chrome {
	return &Chrome{chromeDoc: newChromeDoc(w), seenCore: make(map[int]bool)}
}

// insertionDepth maps the insertion-position name to a numeric LRU-stack
// depth so the counter track is plottable (0 = LRU .. 3 = MRU; an
// unknown name plots as 0).
func insertionDepth(pos string) int {
	p, _ := cache.ParseInsertPos(pos)
	return int(p)
}

// TraceDecision implements sim.Tracer.
func (c *Chrome) TraceDecision(ev sim.DecisionEvent) {
	if !c.seenCore[ev.Core] {
		c.seenCore[ev.Core] = true
		c.emit(chromeEvent{Name: "process_name", Ph: "M", Pid: ev.Core,
			Args: map[string]any{"name": fmt.Sprintf("fdpsim core %d", ev.Core)}})
	}
	ts := float64(ev.Cycle)
	counters := []struct {
		track string
		args  map[string]any
	}{
		{"accuracy %", map[string]any{"accuracy": 100 * ev.Accuracy}},
		{"lateness %", map[string]any{"lateness": 100 * ev.Lateness}},
		{"pollution %", map[string]any{"pollution": 100 * ev.Pollution}},
		{"DCC", map[string]any{"level": ev.DCCAfter}},
		{"prefetch config", map[string]any{"distance": ev.Distance, "degree": ev.Degree}},
		{"insertion depth", map[string]any{"depth": insertionDepth(ev.Insertion)}},
	}
	for _, ct := range counters {
		c.emit(chromeEvent{Name: ct.track, Ph: "C", Ts: ts, Pid: ev.Core, Args: ct.args})
	}
	// Attribution runs add the cycle-accounting and memory-pressure
	// tracks. A zero sample means attribution was off for this run, and
	// emitting nothing keeps non-attribution traces unchanged.
	if s := ev.Sample; s.Cycles.Total() > 0 {
		total := float64(s.Cycles.Total())
		pct := func(v uint64) float64 { return 100 * float64(v) / total }
		attr := []struct {
			track string
			args  map[string]any
		}{
			{"stall breakdown %", map[string]any{
				"retire_full":     pct(s.Cycles.RetireFull),
				"retire_partial":  pct(s.Cycles.RetirePartial),
				"stall_load_miss": pct(s.Cycles.StallLoadMiss),
				"stall_rob_full":  pct(s.Cycles.StallROBFull),
				"stall_dram_bp":   pct(s.Cycles.StallDRAMBP),
				"stall_ifetch":    pct(s.Cycles.StallIFetch),
				"stall_frontend":  pct(s.Cycles.StallFrontend),
			}},
			{"bus utilization %", map[string]any{"utilization": 100 * s.BusUtilization}},
			{"bus occupancy cycles", map[string]any{
				"demand":    s.BusDemandCycles,
				"prefetch":  s.BusPrefetchCycles,
				"writeback": s.BusWritebackCycles,
			}},
			{"row hit rate %", map[string]any{"row_hit": 100 * s.RowHitRate()}},
			{"queue depth", map[string]any{"mshr": s.MSHRMean, "dram_queue": s.QueueMean}},
		}
		for _, ct := range attr {
			c.emit(chromeEvent{Name: ct.track, Ph: "C", Ts: ts, Pid: ev.Core, Args: ct.args})
		}
	}
	c.emit(chromeEvent{
		Name: fmt.Sprintf("case %d: %s", ev.Case, ev.Reason),
		Ph:   "i", Ts: ts, Pid: ev.Core, S: "p",
		Args: map[string]any{
			"interval":       ev.Interval,
			"retired":        ev.Retired,
			"accuracy_class": ev.AccuracyClass,
			"late":           ev.Late,
			"polluting":      ev.Polluting,
			"update":         ev.Update,
			"dcc":            fmt.Sprintf("%d→%d", ev.DCCBefore, ev.DCCAfter),
			"insertion":      ev.Insertion,
		},
	})
}

// Err returns the sticky write error, if any.
func (c *Chrome) Err() error { return c.err }

// Close terminates the trace document and flushes buffered output.
func (c *Chrome) Close() error { return c.close() }

// WriteChrome renders a collected event slice as one Chrome trace
// document (the service's ?format=chrome path).
func WriteChrome(w io.Writer, events []sim.DecisionEvent) error {
	c := NewChrome(w)
	for _, ev := range events {
		c.TraceDecision(ev)
	}
	return c.Close()
}
