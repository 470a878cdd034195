package harness

import (
	"context"
	"fmt"

	"fdpsim/internal/control"
	"fdpsim/internal/series"
)

// Interval-timeseries shoot-out: every registered feedback decision
// policy races the paper's Table 2 policy ("fdp") interval by interval
// instead of endpoint by endpoint. The controllers experiment compares
// where each policy lands; this one compares the trajectory it took —
// how far the IPC, bandwidth and aggressiveness-level series drift from
// the reference, and at which interval they first diverge. A policy can
// match fdp's final IPC while oscillating wildly on the way there; the
// RMS columns expose that.

func init() {
	registerExperiment("seriesdiff",
		"Interval-timeseries diff: each controller's trajectory vs. the Table 2 policy",
		runSeriesDiff)
}

// seriesDiffBaseline is the reference controller every other policy is
// diffed against.
const seriesDiffBaseline = "fdp"

// seriesDiffMetrics are the catalog columns the merged table summarises.
var seriesDiffMetrics = []string{"ipc", "bpki", "accuracy", "bus_util", "dcc_level"}

// seriesDiffWorkloads are the workloads every controller runs.
var seriesDiffWorkloads = []string{"seqstream", "mixedphase", "chaserand"}

func runSeriesDiff(ctx context.Context, p Params) ([]Table, error) {
	ws := seriesDiffWorkloads
	infos := control.List()

	// A memoized cell replays no intervals, so every cell simulates with
	// its own series recorder attached: recording must not depend on
	// whether an earlier experiment already simulated the same
	// configuration.
	p.Memo = nil
	type cellKey struct{ workload, controller string }
	recorders := map[cellKey]*series.Recorder{}
	specs := cells(ws, controllerColumns(), p)
	for i, c := range specs {
		rec := &series.Recorder{}
		specs[i].Cfg.Tracer = rec
		recorders[cellKey{c.Workload, c.Config}] = rec
	}
	if _, err := RunAll(ctx, specs, p); err != nil {
		return nil, err
	}

	// Merged head-to-head: one row per controller, residuals vs. the
	// baseline aggregated across workloads (mean RMS per banded metric,
	// max |delta| for the aggressiveness level, earliest divergence).
	merged := Table{
		Title: "Trajectory residuals vs. the fdp baseline (averaged over 3 workloads)",
		Note: "RMS of the per-interval delta series; first-div is the earliest interval any metric diverges; " +
			"verdict applies the default tolerance bands (internal/series)",
		Header: []string{"controller", "ipc-rms", "bpki-rms", "acc-rms", "busutil-rms", "level-max|d|", "first-div", "verdict"},
	}
	firstDiv := Table{
		Title:  "First diverging interval vs. fdp, per workload",
		Note:   "0 means the whole aligned series matched the baseline exactly",
		Header: append([]string{"controller"}, ws...),
	}
	for _, info := range infos {
		rms := map[string]float64{}
		var levelMax float64
		earliest := 0
		verdict := series.VerdictPass
		var perWorkload []string
		for _, w := range ws {
			base, cur := recorders[cellKey{w, seriesDiffBaseline}], recorders[cellKey{w, info.Name}]
			rep := series.Diff(base.Series(), cur.Series(), series.Options{})
			if rep.Verdict == series.VerdictFail {
				verdict = series.VerdictFail
			}
			wFirst := 0
			for _, name := range seriesDiffMetrics {
				m := rep.Metrics[series.MetricIndex(name)]
				if name == "dcc_level" {
					if m.MaxAbs > levelMax {
						levelMax = m.MaxAbs
					}
				} else {
					rms[name] += m.RMS
				}
				if m.FirstDivergence > 0 && (wFirst == 0 || m.FirstDivergence < wFirst) {
					wFirst = m.FirstDivergence
				}
			}
			if wFirst > 0 && (earliest == 0 || wFirst < earliest) {
				earliest = wFirst
			}
			perWorkload = append(perWorkload, fmt.Sprintf("%d", wFirst))
		}
		n := float64(len(ws))
		div := "-"
		if earliest > 0 {
			div = fmt.Sprintf("%d", earliest)
		}
		merged.AddRow(info.Name,
			f3(rms["ipc"]/n), f2(rms["bpki"]/n), f3(rms["accuracy"]/n),
			f3(rms["bus_util"]/n), f1(levelMax), div, verdict)
		firstDiv.AddRow(append([]string{info.Name}, perWorkload...)...)
	}

	return []Table{merged, firstDiv}, nil
}
