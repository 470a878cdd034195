// Package series is the interval-timeseries layer: a compact columnar
// store for the per-FDP-interval metrics the paper's feedback loop is
// built on (IPC, BPKI, accuracy, lateness, pollution, the DCC level, the
// insertion position, bus utilization, and the attribution layer's stall
// and pressure signals).
//
// The Recorder is a sim.Tracer: it derives one row of the typed metric
// catalog from every DecisionEvent and appends it column-wise. Encode
// packs the columns into a delta-encoded, CRC-framed binary document
// (persisted by internal/store as a <fp>.series.bin sidecar next to the
// Result and the decision trace); Decode reads it back. On top of the
// Series sit windowed downsampling (Downsample: min/mean/max/p95 per
// step), element-wise merging across runs (Merge, the sweep-level view)
// and the run-diff engine (Diff): align two runs interval-by-interval,
// compute residuals and a verdict against tolerance bands — the
// calibration substrate the sampled-simulation error bars and the
// analytical twin (ROADMAP items 2 and 3) plug into.
package series

import (
	"sync"

	"fdpsim/internal/sim"
)

// Kind types a catalog metric's column encoding.
type Kind int

const (
	// KindInt marks integral columns (counts, levels); encoded as
	// zigzag-delta uvarints, which collapse slowly-varying counters.
	KindInt Kind = iota
	// KindFloat marks real-valued columns; encoded as XOR-of-IEEE-bits
	// deltas, which collapse repeated and slowly-drifting values.
	KindFloat
)

// Metric describes one catalog column.
type Metric struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	Unit string `json:"unit,omitempty"`
	Help string `json:"help"`
}

// Catalog is the typed metric catalog, in column order. The order is part
// of the binary format: byte-identical encoding requires a stable catalog,
// so new metrics append, never reorder.
var Catalog = []Metric{
	{Name: "cycles", Kind: KindInt, Unit: "cycles", Help: "core cycles elapsed in the interval (0 during warmup)"},
	{Name: "retired", Kind: KindInt, Unit: "insts", Help: "instructions retired in the interval (0 during warmup)"},
	{Name: "ipc", Kind: KindFloat, Help: "retired/cycles for the interval"},
	{Name: "bpki", Kind: KindFloat, Help: "estimated bus accesses per 1000 retired instructions: 1000*(demand_misses+pref_sent)/retired (excludes writebacks)"},
	{Name: "accuracy", Kind: KindFloat, Help: "prefetch accuracy (Equation 1 decayed) at the boundary"},
	{Name: "lateness", Kind: KindFloat, Help: "prefetch lateness at the boundary"},
	{Name: "pollution", Kind: KindFloat, Help: "cache-pollution metric at the boundary"},
	{Name: "dcc_level", Kind: KindInt, Unit: "level", Help: "Dynamic Configuration Counter after the boundary's update (1..5)"},
	{Name: "insertion_pos", Kind: KindInt, Help: "insertion position chosen for the next interval: 0=MRU 1=MID 2=LRU-4 3=LRU (-1 unknown)"},
	{Name: "bus_util", Kind: KindFloat, Help: "fraction of the interval's cycles the shared data bus was busy"},
	{Name: "retire_full", Kind: KindFloat, Help: "share of interval cycles retiring a full width (attribution only)"},
	{Name: "retire_partial", Kind: KindFloat, Help: "share of interval cycles retiring partially (attribution only)"},
	{Name: "stall_load_miss", Kind: KindFloat, Help: "share of interval cycles stalled on a head load miss (attribution only)"},
	{Name: "stall_rob_full", Kind: KindFloat, Help: "share of interval cycles stalled with the ROB full (attribution only)"},
	{Name: "stall_dram_bp", Kind: KindFloat, Help: "share of interval cycles stalled on DRAM backpressure (attribution only)"},
	{Name: "stall_ifetch", Kind: KindFloat, Help: "share of interval cycles stalled on instruction fetch (attribution only)"},
	{Name: "stall_frontend", Kind: KindFloat, Help: "share of interval cycles lost to dispatch gaps (attribution only)"},
	{Name: "mshr_mean", Kind: KindFloat, Help: "mean MSHR occupancy over the interval (attribution only)"},
	{Name: "queue_mean", Kind: KindFloat, Help: "mean DRAM queue depth over the interval (attribution only)"},
	{Name: "row_hit_rate", Kind: KindFloat, Help: "DRAM row-buffer hit rate over the interval (attribution only)"},
	{Name: "pref_sent", Kind: KindInt, Unit: "prefetches", Help: "prefetches sent on the bus in the interval (raw count)"},
	{Name: "pref_used", Kind: KindInt, Unit: "prefetches", Help: "prefetched blocks first used by demand in the interval (raw count)"},
	{Name: "pref_late", Kind: KindInt, Unit: "prefetches", Help: "demand hits on still-in-flight prefetches in the interval (raw count)"},
	{Name: "pollution_misses", Kind: KindInt, Unit: "misses", Help: "demand misses the pollution filter attributes to prefetching (raw count)"},
	{Name: "demand_misses", Kind: KindInt, Unit: "misses", Help: "L2 demand misses in the interval (raw count)"},
}

// NumMetrics is the catalog width.
var NumMetrics = len(Catalog)

// MetricIndex returns the catalog position of a metric name, or -1.
func MetricIndex(name string) int {
	for i, m := range Catalog {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Meta is the series header: identity labels plus the column layout the
// payload frames follow.
type Meta struct {
	Version    int      `json:"version"`
	Workload   string   `json:"workload,omitempty"`
	Prefetcher string   `json:"prefetcher,omitempty"`
	Controller string   `json:"controller,omitempty"`
	Intervals  int      `json:"intervals"`
	Metrics    []string `json:"metrics"`
	// Truncated counts intervals dropped by the Recorder's Limit; a
	// non-zero value flags the series as a prefix of the run.
	Truncated uint64 `json:"truncated,omitempty"`
}

// Series is a decoded (or recorded) interval timeseries: one column of
// float64 values per Meta.Metrics entry, all the same length.
type Series struct {
	Meta    Meta
	Columns [][]float64 // parallel to Meta.Metrics
}

// Len returns the interval count.
func (s *Series) Len() int { return s.Meta.Intervals }

// Column returns the values for a metric name.
func (s *Series) Column(name string) ([]float64, bool) {
	for i, m := range s.Meta.Metrics {
		if m == name {
			return s.Columns[i], true
		}
	}
	return nil, false
}

// insertionIndex maps a DecisionEvent insertion label to its catalog code.
func insertionIndex(pos string) int {
	switch pos {
	case "MRU":
		return 0
	case "MID":
		return 1
	case "LRU-4":
		return 2
	case "LRU":
		return 3
	default:
		return -1
	}
}

// Recorder derives one catalog row per FDP interval boundary and appends
// it column-wise. It implements sim.Tracer and is driven synchronously
// from the simulation loop; with capacity pre-allocated via Reserve, an
// append touches no heap (guarded by TestRecorderAllocs), so recording a
// series perturbs neither the run nor the engine's 0 allocs/op contract.
type Recorder struct {
	// Core filters multi-core event streams: only events from this core
	// are recorded (0, the default, fits single-core runs).
	Core int
	// Limit, when non-zero, caps the recorded interval count; later
	// boundaries increment Meta.Truncated instead of growing the columns.
	Limit int
	// Meta seeds the encoded header's identity labels. Controller is
	// filled from the first event when left empty.
	Meta Meta

	mu        sync.Mutex
	cols      [][]float64
	n         int
	truncated uint64
	prevCycle uint64
	prevRet   uint64
}

// Reserve pre-allocates capacity for n intervals so the per-boundary
// append path stays allocation-free up to that length.
func (r *Recorder) Reserve(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureCols()
	for i := range r.cols {
		if cap(r.cols[i]) < n {
			grown := make([]float64, len(r.cols[i]), n)
			copy(grown, r.cols[i])
			r.cols[i] = grown
		}
	}
}

// ensureCols lazily allocates the column slice headers. Caller holds mu.
func (r *Recorder) ensureCols() {
	if r.cols == nil {
		r.cols = make([][]float64, NumMetrics)
	}
}

// Len returns the recorded interval count.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Truncated reports how many boundaries the Limit discarded.
func (r *Recorder) Truncated() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.truncated
}

// TraceDecision implements sim.Tracer: derive the catalog row for the
// closed interval and append it.
func (r *Recorder) TraceDecision(ev sim.DecisionEvent) {
	if ev.Core != r.Core {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Limit > 0 && r.n >= r.Limit {
		r.truncated++
		return
	}
	r.ensureCols()

	// Cycle/Retired are cumulative post-warmup stamps (zero while warming
	// up), so consecutive-boundary deltas are the interval's own counts.
	dc := ev.Cycle - r.prevCycle
	dr := ev.Retired - r.prevRet
	r.prevCycle, r.prevRet = ev.Cycle, ev.Retired

	var ipc float64
	if dc > 0 {
		ipc = float64(dr) / float64(dc)
	}
	// Per-interval bus traffic is estimated from the event counters the
	// boundary carries: demand misses approximate bus reads and PrefSent
	// counts bus prefetches; writebacks are not sampled per interval, so
	// this runs a little under the whole-run BPKI. The catalog documents
	// the estimate; cross-checks against Result use exact invariants.
	var bpki float64
	if dr > 0 {
		bpki = 1000 * float64(ev.Raw.DemandMisses+ev.Raw.PrefSent) / float64(dr)
	}
	c := ev.Sample.Cycles
	row := [...]float64{
		float64(dc),
		float64(dr),
		ipc,
		bpki,
		ev.Accuracy,
		ev.Lateness,
		ev.Pollution,
		float64(ev.DCCAfter),
		float64(insertionIndex(ev.Insertion)),
		ev.BusUtil,
		c.Share(c.RetireFull),
		c.Share(c.RetirePartial),
		c.Share(c.StallLoadMiss),
		c.Share(c.StallROBFull),
		c.Share(c.StallDRAMBP),
		c.Share(c.StallIFetch),
		c.Share(c.StallFrontend),
		ev.Sample.MSHRMean,
		ev.Sample.QueueMean,
		ev.Sample.RowHitRate(),
		float64(ev.Raw.PrefSent),
		float64(ev.Raw.PrefUsed),
		float64(ev.Raw.PrefLate),
		float64(ev.Raw.PollutionMisses),
		float64(ev.Raw.DemandMisses),
	}
	for i, v := range row {
		r.cols[i] = append(r.cols[i], v)
	}
	r.n++
	if r.Meta.Controller == "" {
		r.Meta.Controller = ev.Controller
	}
}

// Series snapshots the recorded columns. The copy is deep, so the
// returned Series is stable even if the recorder keeps appending.
func (r *Recorder) Series() *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureCols()
	meta := r.Meta
	meta.Version = Version
	meta.Intervals = r.n
	meta.Truncated = r.truncated
	meta.Metrics = make([]string, NumMetrics)
	cols := make([][]float64, NumMetrics)
	for i, m := range Catalog {
		meta.Metrics[i] = m.Name
		cols[i] = append([]float64(nil), r.cols[i]...)
	}
	return &Series{Meta: meta, Columns: cols}
}
