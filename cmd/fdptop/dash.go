package main

import (
	"fmt"
	"io"
	"strings"

	"fdpsim"
	"fdpsim/internal/stats"
)

// frame is one dashboard update, built from one DecisionEvent — an SSE
// "progress" payload from fdpserved or a line of a replayed JSONL
// decision trace; both sources carry the same object.
type frame struct {
	Core     int
	Interval uint64
	Cycle    uint64
	Retired  uint64
	IPC      float64

	Accuracy  float64
	Lateness  float64
	Pollution float64
	Level     int
	Insertion string

	Sample stats.IntervalSample
}

func frameFromEvent(ev fdpsim.DecisionEvent) frame {
	f := frame{
		Core:      ev.Core,
		Interval:  ev.Interval,
		Cycle:     ev.Cycle,
		Retired:   ev.Retired,
		Accuracy:  ev.Accuracy,
		Lateness:  ev.Lateness,
		Pollution: ev.Pollution,
		Level:     levelFromParams(ev),
		Insertion: ev.Insertion,
		Sample:    ev.Sample,
	}
	if ev.Cycle > 0 {
		f.IPC = float64(ev.Retired) / float64(ev.Cycle)
	}
	return f
}

// levelFromParams recovers the aggressiveness level from the event's DCC
// (the counter value after the boundary's update IS the level).
func levelFromParams(ev fdpsim.DecisionEvent) int { return ev.DCCAfter }

// sparkWidth is how many interval IPC values the sparkline keeps.
const sparkWidth = 48

// dash accumulates frames and renders the dashboard. All state is plain
// values; rendering writes to an io.Writer so tests can capture frames.
type dash struct {
	source string // "job 3f2c… @ host:port" or "replay trace.jsonl"
	last   frame
	ipcs   []float64 // trailing per-interval IPC history for the sparkline
	frames uint64
	done   bool
	// res is the run's closing Result, once an attached job is done: the
	// only source of BPKI, which no interval event carries.
	res *fdpsim.Result
}

func newDash(source string) *dash { return &dash{source: source} }

// observe folds one frame into the dashboard state. A frame without an
// attribution sample (a core still warming up) keeps the previous one:
// the last interval's breakdown beats an empty pane.
func (d *dash) observe(f frame) {
	if f.Sample.Cycles.Total() == 0 && d.last.Sample.Cycles.Total() > 0 {
		f.Sample = d.last.Sample
	}
	d.last = f
	d.frames++
	if f.IPC > 0 {
		d.ipcs = append(d.ipcs, f.IPC)
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
	f := &d.last
	f.Interval, f.Cycle, f.Retired, f.IPC = res.Intervals, res.Counters.Cycles, res.Counters.Retired, res.IPC
	f.Accuracy, f.Lateness, f.Pollution, f.Level = res.Accuracy, res.Lateness, res.Pollution, res.FinalLevel
}

// render writes one full dashboard frame.
func (d *dash) render(w io.Writer) {
	f := d.last
	state := "running"
	if d.done {
		state = "done"
	}
	fmt.Fprintf(w, "fdptop — %s  [%s]\n", d.source, state)
	fmt.Fprintf(w, "interval %-6d cycle %-12d retired %-12d IPC %6.3f  %s\n",
		f.Interval, f.Cycle, f.Retired, f.IPC, d.bpkiCell())
	fmt.Fprintf(w, "ipc   %s\n", sparkline(d.ipcs))
	d.renderStalls(w, f.Sample.Cycles)
	d.renderBus(w, f)
	fmt.Fprintf(w, "fdp   acc %3.0f%%  late %3.0f%%  poll %3.0f%%  level %d  insert %s\n",
		100*f.Accuracy, 100*f.Lateness, 100*f.Pollution, f.Level, f.Insertion)
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
func (d *dash) renderBus(w io.Writer, f frame) {
	s := f.Sample
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
		100*f.Sample.RowHitRate(), s.MSHRMean, s.QueueMean)
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
