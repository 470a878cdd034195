package series

import "math"

// Diff verdict values. A metric passes when its max absolute deviation
// stays inside the tolerance band, fails when it escapes, and is
// informational when no band applies (Tolerance < 0) — raw counts, for
// example, where any fixed absolute band would be arbitrary.
const (
	VerdictPass = "pass"
	VerdictFail = "fail"
	VerdictInfo = "info"
)

// DefaultTolerances is the built-in band set: absolute max-deviation
// bounds on the rate/level metrics two equivalent runs must agree on,
// and -1 (informational) for the remaining catalog metrics. The bands
// are loose enough to pass small per-interval timing differences between
// two runs of one policy and tight enough that a diverged policy trips
// them, which is what the seriesdiff experiment, fdptop -diff and
// GET /v1/diff report.
func DefaultTolerances() map[string]float64 {
	tol := make(map[string]float64, NumMetrics)
	for _, m := range Catalog {
		tol[m.Name] = -1
	}
	tol["ipc"] = 0.02
	tol["bpki"] = 1.0
	tol["accuracy"] = 0.05
	tol["lateness"] = 0.05
	tol["pollution"] = 0.05
	tol["bus_util"] = 0.05
	tol["dcc_level"] = 0.5
	tol["insertion_pos"] = 0.5
	return tol
}

// Options configures an alignment.
type Options struct {
	// SkipA/SkipB drop leading intervals from each side before aligning —
	// the knob for warmup offsets (e.g. diffing a warmed run against one
	// whose series includes its warmup ramp).
	SkipA int
	SkipB int
	// Tolerances overrides DefaultTolerances; metrics absent from the map
	// are informational.
	Tolerances map[string]float64
	// IncludeDeltas attaches the full per-interval delta series to each
	// MetricDiff (large; off by default).
	IncludeDeltas bool
}

// MetricDiff is one catalog metric's residual summary.
type MetricDiff struct {
	Metric    string  `json:"metric"`
	N         int     `json:"n"`
	MeanDelta float64 `json:"mean_delta"`
	MeanAbs   float64 `json:"mean_abs"`
	MaxAbs    float64 `json:"max_abs"`
	RMS       float64 `json:"rms"`
	// FirstDivergence is the 1-based aligned interval of the first nonzero
	// delta; 0 means the columns never diverge.
	FirstDivergence int `json:"first_divergence"`
	// Tolerance is the band applied; negative means informational.
	Tolerance float64   `json:"tolerance"`
	Verdict   string    `json:"verdict"`
	Delta     []float64 `json:"delta,omitempty"`
}

// Report is a full run-vs-run comparison.
type Report struct {
	MetaA Meta `json:"meta_a"`
	MetaB Meta `json:"meta_b"`
	// Intervals is the aligned length; ExtraA/ExtraB count the intervals
	// each side had beyond it (after skips).
	Intervals int          `json:"intervals"`
	ExtraA    int          `json:"extra_a"`
	ExtraB    int          `json:"extra_b"`
	Metrics   []MetricDiff `json:"metrics"`
	// Verdict is "pass" when every banded metric passes, else "fail".
	Verdict string   `json:"verdict"`
	Failed  []string `json:"failed,omitempty"`
}

// Diff aligns two series interval-by-interval and summarises their
// residuals, one MetricDiff per catalog metric in catalog order; unequal
// lengths compare the common prefix after skips.
func Diff(a, b *Series, opts Options) *Report {
	tol := opts.Tolerances
	if tol == nil {
		tol = DefaultTolerances()
	}
	rep := &Report{MetaA: a.Meta, MetaB: b.Meta, Verdict: VerdictPass}

	skipA, skipB := opts.SkipA, opts.SkipB
	if skipA > a.Len() {
		skipA = a.Len()
	}
	if skipB > b.Len() {
		skipB = b.Len()
	}
	if skipA < 0 {
		skipA = 0
	}
	if skipB < 0 {
		skipB = 0
	}
	lenA := a.Len() - skipA
	lenB := b.Len() - skipB
	n := lenA
	if lenB < n {
		n = lenB
	}
	rep.Intervals = n
	rep.ExtraA = lenA - n
	rep.ExtraB = lenB - n

	for i, m := range Catalog {
		md := diffColumn(m.Name, a.Columns[i][skipA:skipA+n], b.Columns[i][skipB:skipB+n], opts.IncludeDeltas)
		band, banded := tol[m.Name]
		if !banded {
			band = -1
		}
		md.Tolerance = band
		switch {
		case band < 0:
			md.Verdict = VerdictInfo
		case md.MaxAbs > band:
			md.Verdict = VerdictFail
			rep.Verdict = VerdictFail
			rep.Failed = append(rep.Failed, m.Name)
		default:
			md.Verdict = VerdictPass
		}
		rep.Metrics = append(rep.Metrics, md)
	}
	return rep
}

func diffColumn(name string, a, b []float64, keepDeltas bool) MetricDiff {
	md := MetricDiff{Metric: name, N: len(a)}
	if len(a) == 0 {
		return md
	}
	var sum, sumAbs, sumSq float64
	var deltas []float64
	if keepDeltas {
		deltas = make([]float64, len(a))
	}
	for i := range a {
		d := b[i] - a[i]
		if keepDeltas {
			deltas[i] = d
		}
		sum += d
		ad := math.Abs(d)
		sumAbs += ad
		sumSq += d * d
		if ad > md.MaxAbs {
			md.MaxAbs = ad
		}
		if d != 0 && md.FirstDivergence == 0 {
			md.FirstDivergence = i + 1
		}
	}
	nf := float64(len(a))
	md.MeanDelta = sum / nf
	md.MeanAbs = sumAbs / nf
	md.RMS = math.Sqrt(sumSq / nf)
	md.Delta = deltas
	return md
}
