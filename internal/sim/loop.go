package sim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fdpsim/internal/core"
	"fdpsim/internal/cpu"
	"fdpsim/internal/mem"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

// cancelCheckStride bounds cancellation latency for runs that close no
// FDP sampling intervals (cache-resident loops evict nothing): the cycle
// loop polls ctx at least this often. Must be a power of two.
const cancelCheckStride = 4096

// drainBudget bounds the extra cycles spent retiring in-flight
// instructions after cancellation, so a wedged memory system cannot turn
// a cancel into a hang.
const drainBudget = 50_000

// stallLimit is how many cycles may pass without any CPU retiring an
// instruction before the run is declared wedged.
const stallLimit = 2_000_000

// loop is the one simulation loop behind every run entry point: N cache
// hierarchies (nodes) on one DRAM, each with T CPUs (lanes). Single-core
// is N=1, T=1; multi-core is a node per core; SMT is one node with a lane
// per thread. The loop owns the per-cycle step, warm-up and finish
// bookkeeping, the interval handler, cancel-and-drain, the stall detector
// and the cycle budget.
type loop struct {
	nodes []node
	dram  *mem.DRAM
	cycle uint64
	open  int  // lanes short of their retire target; the run ends at 0
	due   bool // set by step when a lane reaches its mark: settle has work

	// intervalClosed is set by every node's interval handler and gates
	// the cancellation poll, so a cancel lands within one interval.
	intervalClosed bool
	// retired sums every lane's retire count as of the last poll;
	// lastProgress is the poll cycle it last moved.
	retired, lastProgress uint64

	ctx   context.Context
	start time.Time
}

// node is one cache hierarchy with its counters and lanes. Only
// single-lane nodes warm up (SMT runs take no warm-up): once the lane has
// retired WarmupInsts, the node's statistics restart.
type node struct {
	h         *hierarchy
	lanes     []lane
	open      int // lanes short of their retire target
	warmed    bool
	warmCycle uint64

	l   *loop
	cfg Config
	ctr stats.Counters
	// snap holds the counters frozen when the node's last lane finished,
	// or at the stop cycle of a cancelled run.
	snap stats.Counters
	// emit is set when a tracer listens or the run keeps its history:
	// only then does an interval build its DecisionEvent, which history
	// retains under Config.KeepFDPHistory.
	emit    bool
	history []DecisionEvent
}

// lane is one CPU on a node, finishing at target retirements (warm-up
// included); mark is the next retire count with bookkeeping to do: the
// node's WarmupInsts until it warms up, then target, then none. finish
// (zero until then) and retired (post-warm-up) stamp its finish line, or
// the stop cycle if it was cancelled short of it; the warm counts are its
// retire counts at the node's warm-up reset.
type lane struct {
	cpu                                *cpu.CPU
	mark, target, finish, retired      uint64
	warmRetired, warmLoads, warmStores uint64
	name                               string // the source's, for errors
}

// newLoop builds a topology with one node per config, all on one DRAM
// configured from the first. Lanes attach afterwards through add.
func newLoop(ctx context.Context, cfgs ...Config) *loop {
	l := &loop{ctx: ctx, start: time.Now(), dram: mem.New(cfgs[0].DRAM), nodes: make([]node, len(cfgs))}
	for i := range l.nodes {
		n := &l.nodes[i]
		n.l, n.cfg, n.warmed = l, cfgs[i], cfgs[i].WarmupInsts == 0
		n.emit = n.cfg.Tracer != nil || n.cfg.KeepFDPHistory
		n.h = newHierarchy(&n.cfg, &n.ctr, l.dram, i)
		n.h.fdp.OnInterval = n.onInterval
	}
	l.dram.OnStart = l.onBusStart
	return l
}

// add attaches a CPU running src to node n as a new lane.
func (l *loop) add(n *node, src cpu.Source) {
	ln := lane{cpu: n.h.attach(&n.cfg, src), target: n.cfg.WarmupInsts + n.cfg.MaxInsts, name: src.Name()}
	ln.mark = ln.target
	if !n.warmed {
		ln.mark = n.cfg.WarmupInsts
	}
	n.lanes = append(n.lanes, ln)
	n.open++
	l.open++
}

// laneSource returns lane i's micro-op source: sources[i] when the caller
// provides them, else the named workload seeded with seed+i and relocated
// into a private address space, so co-running workloads contend for
// cache space and bandwidth rather than aliasing each other's lines.
func laneSource(sources []cpu.Source, name string, seed uint64, i int) (cpu.Source, error) {
	if sources != nil {
		return sources[i], nil
	}
	src, err := workload.New(name, seed+uint64(i))
	if err != nil {
		return nil, err
	}
	return &offsetSource{src: src, base: uint64(i) << 44}, nil
}

// offsetSource relocates a workload into a private address space.
type offsetSource struct {
	src  cpu.Source
	base uint64
}

// Name implements cpu.Source.
func (o *offsetSource) Name() string { return o.src.Name() }

// Next implements cpu.Source.
func (o *offsetSource) Next() cpu.MicroOp {
	op := o.src.Next()
	if op.Kind != cpu.Nop {
		op.Addr += o.base
	}
	if op.PC != 0 {
		op.PC += o.base
	}
	return op
}

// onBusStart routes the DRAM's bus-start events to the requesting node.
func (l *loop) onBusStart(r *mem.Request) { l.nodes[r.Owner].h.onBusStart(r) }

// step advances the topology cycle by cycle until cycle stop, or
// sooner when a lane reaches its mark (flagging the loop due) or an FDP
// interval closes; each cycle ticks the DRAM, then each hierarchy
// followed by its CPUs. It is the only code that moves the clock. Marks
// change only between calls, so a stretch of cycles runs with no
// bookkeeping at all.
//
// A hierarchy alone on the DRAM (single-core and SMT runs) is stamped
// with the new cycle before the DRAM's fill and bus-start callbacks run;
// hierarchies sharing it stamp theirs after, so there a fill's writeback
// carries the previous cycle. The goldens pin both (DESIGN.md, "Run
// loop").
func (l *loop) step(stop uint64) {
	lone := len(l.nodes) == 1
	for {
		l.cycle++
		if lone {
			l.nodes[0].h.cyc = l.cycle
		}
		l.dram.Tick(l.cycle)
		for i := range l.nodes {
			n := &l.nodes[i]
			n.h.Tick(l.cycle)
			for j := range n.lanes {
				if n.lanes[j].cpu.Tick(); n.lanes[j].cpu.Retired() >= n.lanes[j].mark {
					l.due = true
				}
			}
		}
		if l.due || l.intervalClosed || l.cycle >= stop {
			return
		}
	}
}

// settle does the bookkeeping after a stretch that ended due: a node's
// warm-up reset once its lane has retired WarmupInsts, then each lane's
// finish line (past warm-up, a lane's mark is its target until it
// finishes).
func (l *loop) settle() {
	if !l.due {
		return
	}
	l.due = false
	for i := range l.nodes {
		n := &l.nodes[i]
		if !n.warmed && n.lanes[0].cpu.Retired() >= n.cfg.WarmupInsts {
			n.warmUp()
		}
		for j := range n.lanes {
			if ln := &n.lanes[j]; ln.cpu.Retired() >= ln.mark {
				ln.stamp(l.cycle)
				ln.mark = ^uint64(0)
				l.open--
				if n.open--; n.open == 0 {
					n.freeze()
				}
			}
		}
	}
}

// run steps the topology until every lane reaches its retire target, in
// stretches that end at every cancelCheckStride-th cycle and at the
// budget. After every interval close and stride it polls ctx and the
// stall detector (no lane retired for stallLimit cycles, seen within a
// stride).
func (l *loop) run() error {
	budget := l.budget()
	cancellable := l.ctx.Done() != nil
	for {
		l.step(min(l.cycle|(cancelCheckStride-1)+1, budget))
		l.settle()
		if l.open == 0 {
			return nil
		}
		if l.intervalClosed || l.cycle&(cancelCheckStride-1) == 0 {
			l.intervalClosed = false
			if cancellable {
				if err := l.ctx.Err(); err != nil {
					return l.stop(err)
				}
			}
			var total uint64
			l.each(func(_ *node, ln *lane) { total += ln.cpu.Retired() })
			if total != l.retired {
				l.retired, l.lastProgress = total, l.cycle
			} else if l.cycle-l.lastProgress > stallLimit {
				return fmt.Errorf("sim: no retirement progress for 2M cycles at cycle %d (%s)", l.cycle, l.describe())
			}
		}
		if l.cycle >= budget {
			return fmt.Errorf("sim: exceeded cycle budget %d (%s)", budget, l.describe())
		}
	}
}

// budget returns the cycle at which the run aborts: the largest node
// budget, which is Config.MaxCycles or by default 500 cycles per
// instruction the node retires over all its lanes, warm-up included (so
// even an IPC of 0.002 finishes), and at least 10M.
func (l *loop) budget() uint64 {
	var b uint64
	for i := range l.nodes {
		n := &l.nodes[i]
		nb := n.cfg.MaxCycles
		if nb == 0 {
			nb = max(500*uint64(len(n.lanes))*(n.cfg.WarmupInsts+n.cfg.MaxInsts), 10_000_000)
		}
		b = max(b, nb)
	}
	return b
}

// stop is the clean stop on cancellation: every CPU halts dispatch, the
// topology steps until no instruction is in flight (at most drainBudget
// cycles), and every unfinished lane and node is stamped at the stop
// cycle. CancelError.Retired is the largest post-warm-up count among
// those lanes; Target is the first node's.
func (l *loop) stop(cause error) error {
	inFlight := func() (busy bool) {
		l.each(func(_ *node, ln *lane) { busy = busy || ln.cpu.InFlight() > 0 })
		return busy
	}
	l.each(func(_ *node, ln *lane) { ln.cpu.Halt() })
	for extra := 0; extra < drainBudget && inFlight(); extra++ {
		l.step(l.cycle + 1)
	}
	var retired uint64
	l.each(func(_ *node, ln *lane) {
		if ln.finish == 0 {
			ln.stamp(l.cycle)
			retired = max(retired, ln.retired)
		}
	})
	for i := range l.nodes {
		if l.nodes[i].open > 0 {
			l.nodes[i].freeze()
		}
	}
	return &CancelError{Cause: cause, Cycle: l.cycle, Retired: retired, Target: l.nodes[0].cfg.MaxInsts}
}

// describe names the workloads and their post-warm-up progress for the
// stall and budget errors.
func (l *loop) describe() string {
	var names []string
	var retired, target uint64
	l.each(func(n *node, ln *lane) {
		names = append(names, ln.name)
		retired += ln.cpu.Retired() - ln.warmRetired
		target += n.cfg.MaxInsts
	})
	return fmt.Sprintf("workload %s, retired %d of %d", strings.Join(names, "+"), retired, target)
}

// each calls f on every lane, node by node (off the per-cycle path).
func (l *loop) each(f func(n *node, ln *lane)) {
	for i := range l.nodes {
		for j := range l.nodes[i].lanes {
			f(&l.nodes[i], &l.nodes[i].lanes[j])
		}
	}
}

// stamp records the lane's finish line (or stop point) at cycle.
func (ln *lane) stamp(cycle uint64) {
	ln.finish, ln.retired = cycle, ln.cpu.Retired()-ln.warmRetired
}

// warmUp discards the node's warm-up statistics and keeps all of its
// microarchitectural state: counters restart at zero, and cycle and
// retire counts are measured from here.
func (n *node) warmUp() {
	ln := &n.lanes[0]
	n.warmed, n.warmCycle = true, n.l.cycle
	ln.warmRetired, ln.warmLoads, ln.warmStores = ln.cpu.Retired(), ln.cpu.RetiredLoads(), ln.cpu.RetiredStores()
	ln.mark = ln.target
	n.ctr = stats.Counters{}
	if n.h.attr != nil {
		n.h.attrWarmupReset()
	}
}

// freeze snapshots the node's counters at the current cycle, with cycle
// and retire counts post-warm-up and summed over the lanes.
func (n *node) freeze() {
	n.snap = n.ctr
	n.snap.Cycles = n.l.cycle - n.warmCycle
	n.snap.Retired = n.retired()
	for _, ln := range n.lanes {
		n.snap.RetiredLoads += ln.cpu.RetiredLoads() - ln.warmLoads
		n.snap.RetiredStores += ln.cpu.RetiredStores() - ln.warmStores
		n.snap.StallFetch += ln.cpu.StallFetch()
	}
	n.snap.Intervals = n.h.fdp.Intervals()
}

// retired returns the node's retire count since its warm-up reset.
func (n *node) retired() uint64 {
	var r uint64
	for _, ln := range n.lanes {
		r += ln.cpu.Retired() - ln.warmRetired
	}
	return r
}

// finalLevel returns the aggressiveness level in effect now.
func (n *node) finalLevel() int {
	if n.h.pf != nil {
		return n.h.pf.Level()
	}
	return n.h.fdp.Level()
}

// onInterval is every node's FDP OnInterval hook. It flags the closed
// interval for the cancellation poll and, when the node emits, builds the
// interval's one DecisionEvent, stamped with the node's post-warm-up
// cycle and retire counts (zero while warming up), and hands it to the
// tracer and the history.
func (n *node) onInterval(s *core.Signals, d core.Decision) {
	n.l.intervalClosed = true
	if !n.emit {
		return
	}
	ev := n.h.decisionEvent(s, d)
	if n.warmed {
		ev.Cycle, ev.Retired = n.l.cycle-n.warmCycle, n.retired()
		if n.h.attr != nil {
			ev.Sample = n.h.attrIntervalSample()
		}
	}
	if n.cfg.Tracer != nil {
		n.cfg.Tracer.TraceDecision(ev)
	}
	if n.cfg.KeepFDPHistory {
		n.history = append(n.history, ev)
	}
}

// finish shapes the node's frozen counters into a Result, with History
// cut at the frozen interval count.
func (n *node) finish() Result {
	ctr := n.snap
	res := Result{
		Workload:    n.cfg.Workload,
		Prefetcher:  string(n.cfg.Prefetcher),
		Level:       n.cfg.StaticLevel,
		Counters:    ctr,
		IPC:         ctr.IPC(),
		BPKI:        ctr.BPKI(),
		Accuracy:    ctr.Accuracy(),
		Lateness:    ctr.Lateness(),
		Pollution:   ctr.Pollution(),
		LevelDist:   n.h.fdp.LevelDist,
		InsertDist:  n.h.fdp.InsertDist,
		Intervals:   ctr.Intervals,
		FinalLevel:  n.finalLevel(),
		Partial:     n.open > 0,
		Elapsed:     time.Since(n.l.start),
		Attribution: n.h.attrFinalize(),
		Controller:  n.cfg.Controller,
	}
	if n.cfg.KeepFDPHistory {
		res.History = n.history[:ctr.Intervals]
	}
	return res
}
