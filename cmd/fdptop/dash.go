package main

import (
	"fmt"
	"io"
	"strings"

	"fdpsim"
	"fdpsim/internal/stats"
)

// sparkWidth is how many interval IPC values the sparkline keeps.
const sparkWidth = 48

// dash accumulates DecisionEvents — SSE "progress" payloads from
// fdpserved or the lines of a replayed JSONL decision trace; both sources
// carry the same object — and renders the dashboard. All state is plain
// values; rendering writes to an io.Writer so tests can capture frames.
type dash struct {
	source string // "job 3f2c… @ host:port" or "replay trace.jsonl"
	last   fdpsim.DecisionEvent
	ipcs   []float64 // trailing per-interval IPC history for the sparkline
	frames uint64
	done   bool
	// res is the run's closing Result, once an attached job is done: the
	// only source of BPKI, which no interval event carries.
	res *fdpsim.Result
}

func newDash(source string) *dash { return &dash{source: source} }

// observe folds one event into the dashboard state. An event without an
// attribution sample (a core still warming up) keeps the previous one:
// the last interval's breakdown beats an empty pane.
func (d *dash) observe(ev fdpsim.DecisionEvent) {
	if ev.Sample.Cycles.Total() == 0 && d.last.Sample.Cycles.Total() > 0 {
		ev.Sample = d.last.Sample
	}
	d.last = ev
	d.frames++
	if ipc := ev.IPC(); ipc > 0 {
		d.ipcs = append(d.ipcs, ipc)
		if len(d.ipcs) > sparkWidth {
			d.ipcs = d.ipcs[len(d.ipcs)-sparkWidth:]
		}
	}
}

// finish marks the run done. A non-nil res is the run's Result, whose
// whole-run numbers replace the last interval's in the header; it is the
// closing frame even when no interval event arrived (a cache hit).
func (d *dash) finish(res *fdpsim.Result) {
	d.done = true
	if res == nil {
		return
	}
	d.res = res
	ev := &d.last
	ev.Interval, ev.Cycle, ev.Retired = res.Intervals, res.Counters.Cycles, res.Counters.Retired
	ev.Accuracy, ev.Lateness, ev.Pollution = res.Accuracy, res.Lateness, res.Pollution
	// No (distance, degree) pair, so Level() reads the Result's level.
	ev.DCCAfter, ev.Distance, ev.Degree = res.FinalLevel, 0, 0
}

// render writes one full dashboard frame.
func (d *dash) render(w io.Writer) {
	ev := &d.last
	state := "running"
	if d.done {
		state = "done"
	}
	fmt.Fprintf(w, "fdptop — %s  [%s]\n", d.source, state)
	fmt.Fprintf(w, "interval %-6d cycle %-12d retired %-12d IPC %6.3f  %s\n",
		ev.Interval, ev.Cycle, ev.Retired, ev.IPC(), d.bpkiCell())
	fmt.Fprintf(w, "ipc   %s\n", sparkline(d.ipcs))
	d.renderStalls(w, ev.Sample.Cycles)
	d.renderBus(w, ev.Sample)
	fmt.Fprintf(w, "fdp   acc %3.0f%%  late %3.0f%%  poll %3.0f%%  level %d  insert %s\n",
		100*ev.Accuracy, 100*ev.Lateness, 100*ev.Pollution, ev.Level(), ev.Insertion)
}

func (d *dash) bpkiCell() string {
	if d.res == nil {
		return "BPKI     -"
	}
	return fmt.Sprintf("BPKI %6.2f", d.res.BPKI)
}

// renderStalls draws the top-down cycle-accounting pane: one bar per
// bucket, scaled so the shares sum to 100% of the interval's cycles.
func (d *dash) renderStalls(w io.Writer, b stats.CycleBuckets) {
	total := b.Total()
	if total == 0 {
		fmt.Fprintf(w, "stall breakdown: no attribution samples (run with attribution enabled)\n")
		return
	}
	fmt.Fprintf(w, "stall breakdown (interval, %d cycles)\n", total)
	rows := []struct {
		name string
		v    uint64
	}{
		{"retire full", b.RetireFull},
		{"retire part", b.RetirePartial},
		{"load miss", b.StallLoadMiss},
		{"rob full", b.StallROBFull},
		{"dram bp", b.StallDRAMBP},
		{"ifetch", b.StallIFetch},
		{"frontend", b.StallFrontend},
	}
	for _, r := range rows {
		share := b.Share(r.v)
		fmt.Fprintf(w, "  %-11s %s %5.1f%%\n", r.name, bar(share, 24), 100*share)
	}
}

// renderBus draws the memory-pressure pane from the interval sample.
func (d *dash) renderBus(w io.Writer, s stats.IntervalSample) {
	total := s.Cycles.Total()
	if total == 0 {
		return
	}
	ft := float64(total)
	fmt.Fprintf(w, "bus   util %5.1f%%  demand %4.1f%%  prefetch %4.1f%%  writeback %4.1f%%\n",
		100*s.BusUtilization,
		100*float64(s.BusDemandCycles)/ft,
		100*float64(s.BusPrefetchCycles)/ft,
		100*float64(s.BusWritebackCycles)/ft)
	fmt.Fprintf(w, "dram  row-hit %5.1f%%  mshr mean %5.2f  queue mean %5.2f\n",
		100*s.RowHitRate(), s.MSHRMean, s.QueueMean)
}

// bar renders share (0..1) as a fixed-width block bar.
func bar(share float64, width int) string {
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	n := int(share*float64(width) + 0.5)
	return strings.Repeat("█", n) + strings.Repeat("░", width-n)
}

// sparkTicks are the eight block heights of a terminal sparkline.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the IPC history scaled to its own min..max (a flat
// history renders mid-height so a steady run doesn't look like zero).
func sparkline(vs []float64) string {
	if len(vs) == 0 {
		return "(no samples yet)"
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		i := len(sparkTicks) / 2
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkTicks)-1))
		}
		b.WriteRune(sparkTicks[i])
	}
	fmt.Fprintf(&b, "  min %.3f max %.3f", lo, hi)
	return b.String()
}
