// Package series is the interval-timeseries layer: the one stored form
// of a run's per-FDP-interval stream, and the metric catalog the paper's
// feedback loop is judged by (IPC, BPKI, accuracy, lateness, pollution,
// the DCC level, the insertion position, bus utilization, and the
// attribution layer's stall and pressure signals).
//
// The Recorder is a sim.Tracer that keeps one core's DecisionEvents.
// Encode packs every field of every event into a delta-encoded,
// CRC-framed columnar document (persisted by internal/store as the
// <fp>.series.bin sidecar next to the Result); Decode rebuilds the events
// bit for bit, so the JSONL and Chrome decision traces are renderings of
// the decoded stream. The catalog is a view computed from the events
// (Series.Columns). On top of it sit windowed downsampling (Downsample:
// min/mean/max/p95 per step), element-wise merging across runs (Merge,
// the sweep-level view) and the run-diff engine (Diff): align two runs
// interval-by-interval, compute residuals and a verdict against
// tolerance bands, which the seriesdiff experiment, fdptop -diff and
// GET /v1/diff report.
package series

import (
	"slices"
	"sync"

	"fdpsim/internal/cache"
	"fdpsim/internal/sim"
)

// Metric describes one catalog column.
type Metric struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	Help string `json:"help"`
}

// Catalog is the metric catalog, in column order: Series.Columns[i]
// holds Catalog[i]. The columns are computed from the events on read;
// clients select them by name (MetricIndex), and the order is the one
// GET /v1/jobs/{id}/series and its CSV export list.
var Catalog = []Metric{
	{Name: "cycles", Unit: "cycles", Help: "core cycles elapsed in the interval (0 during warmup)"},
	{Name: "retired", Unit: "insts", Help: "instructions retired in the interval (0 during warmup)"},
	{Name: "ipc", Help: "retired/cycles for the interval"},
	{Name: "bpki", Help: "estimated bus accesses per 1000 retired instructions: 1000*(demand_misses+pref_sent)/retired (excludes writebacks)"},
	{Name: "accuracy", Help: "prefetch accuracy (Equation 1 decayed) at the boundary"},
	{Name: "lateness", Help: "prefetch lateness at the boundary"},
	{Name: "pollution", Help: "cache-pollution metric at the boundary"},
	{Name: "dcc_level", Unit: "level", Help: "Dynamic Configuration Counter after the boundary's update (1..5)"},
	{Name: "insertion_pos", Help: "insertion position chosen for the next interval: 0=MRU 1=MID 2=LRU-4 3=LRU (-1 unknown)"},
	{Name: "bus_util", Help: "fraction of the interval's cycles the shared data bus was busy"},
	{Name: "retire_full", Help: "share of interval cycles retiring a full width (attribution only)"},
	{Name: "retire_partial", Help: "share of interval cycles retiring partially (attribution only)"},
	{Name: "stall_load_miss", Help: "share of interval cycles stalled on a head load miss (attribution only)"},
	{Name: "stall_rob_full", Help: "share of interval cycles stalled with the ROB full (attribution only)"},
	{Name: "stall_dram_bp", Help: "share of interval cycles stalled on DRAM backpressure (attribution only)"},
	{Name: "stall_ifetch", Help: "share of interval cycles stalled on instruction fetch (attribution only)"},
	{Name: "stall_frontend", Help: "share of interval cycles lost to dispatch gaps (attribution only)"},
	{Name: "mshr_mean", Help: "mean MSHR occupancy over the interval (attribution only)"},
	{Name: "queue_mean", Help: "mean DRAM queue depth over the interval (attribution only)"},
	{Name: "row_hit_rate", Help: "DRAM row-buffer hit rate over the interval (attribution only)"},
	{Name: "pref_sent", Unit: "prefetches", Help: "prefetches sent on the bus in the interval (raw count)"},
	{Name: "pref_used", Unit: "prefetches", Help: "prefetched blocks first used by demand in the interval (raw count)"},
	{Name: "pref_late", Unit: "prefetches", Help: "demand hits on still-in-flight prefetches in the interval (raw count)"},
	{Name: "pollution_misses", Unit: "misses", Help: "demand misses the pollution filter attributes to prefetching (raw count)"},
	{Name: "demand_misses", Unit: "misses", Help: "L2 demand misses in the interval (raw count)"},
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

// Meta is the series header: identity labels and the interval count.
type Meta struct {
	Version    int    `json:"version"`
	Workload   string `json:"workload,omitempty"`
	Prefetcher string `json:"prefetcher,omitempty"`
	Controller string `json:"controller,omitempty"`
	Intervals  int    `json:"intervals"`
	// Truncated counts intervals dropped by the Recorder's Limit; a
	// non-zero value flags the series as a prefix of the run.
	Truncated uint64 `json:"truncated,omitempty"`
}

// Series is a recorded or decoded interval stream: one core's
// DecisionEvents and the catalog computed from them, one column of
// float64 values per Catalog entry, each Meta.Intervals long. A merged
// series (Merge) has columns but no events.
type Series struct {
	Meta    Meta
	Events  []sim.DecisionEvent
	Columns [][]float64 // parallel to Catalog
}

// Len returns the interval count.
func (s *Series) Len() int { return s.Meta.Intervals }

// Column returns the values for a metric name.
func (s *Series) Column(name string) ([]float64, bool) {
	if i := MetricIndex(name); i >= 0 {
		return s.Columns[i], true
	}
	return nil, false
}

// newSeries completes meta for a stream of events and computes its
// catalog.
func newSeries(meta Meta, events []sim.DecisionEvent) *Series {
	meta.Version = Version
	meta.Intervals = len(events)
	return &Series{Meta: meta, Events: events, Columns: catalog(events)}
}

// insertionIndex maps a DecisionEvent insertion label to its catalog
// code, 0 = MRU .. 3 = LRU, or -1 for an unknown label.
func insertionIndex(pos string) int {
	if p, ok := cache.ParseInsertPos(pos); ok {
		return int(cache.PosMRU - p)
	}
	return -1
}

// catalog computes the catalog columns of one core's events, one row per
// event. The columns share one backing array.
func catalog(events []sim.DecisionEvent) [][]float64 {
	n := len(events)
	flat := make([]float64, n*NumMetrics)
	cols := make([][]float64, NumMetrics)
	for i := range cols {
		cols[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	var prevCycle, prevRet uint64
	for k := range events {
		ev := &events[k]
		// Cycle/Retired are cumulative post-warmup stamps (zero while
		// warming up), so consecutive-boundary deltas are the interval's
		// own counts.
		dc := ev.Cycle - prevCycle
		dr := ev.Retired - prevRet
		prevCycle, prevRet = ev.Cycle, ev.Retired

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
			cols[i][k] = v
		}
	}
	return cols
}

// Recorder keeps one core's DecisionEvents, one per FDP interval
// boundary. It implements sim.Tracer and is driven synchronously from the
// simulation loop; with capacity pre-allocated via Reserve, an append
// touches no heap (guarded by TestRecorderAllocs), so recording perturbs
// neither the run nor the engine's 0 allocs/op contract.
type Recorder struct {
	// Core filters multi-core event streams: only events from this core
	// are recorded (0, the default, fits single-core runs).
	Core int
	// Limit, when non-zero, caps the recorded interval count; later
	// boundaries increment Meta.Truncated instead of growing the stream.
	Limit int

	mu        sync.Mutex
	events    []sim.DecisionEvent
	truncated uint64
}

// Reserve pre-allocates capacity for n intervals so the per-boundary
// append path stays allocation-free up to that length.
func (r *Recorder) Reserve(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > cap(r.events) {
		r.events = slices.Grow(r.events, n-len(r.events))
	}
}

// Len returns the recorded interval count.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Truncated reports how many boundaries the Limit discarded.
func (r *Recorder) Truncated() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.truncated
}

// TraceDecision implements sim.Tracer: keep the event if it is this
// core's and the Limit has room.
func (r *Recorder) TraceDecision(ev sim.DecisionEvent) {
	if ev.Core != r.Core {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.truncated++
		return
	}
	r.events = append(r.events, ev)
}

// Series snapshots the recording, its Controller label taken from the
// first event. Its events share the recorder's buffer, capped at the
// recorded length: the recorder only appends, so the returned Series
// stays stable while recording goes on.
func (r *Recorder) Series() *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	meta := Meta{Truncated: r.truncated}
	n := len(r.events)
	if n > 0 {
		meta.Controller = r.events[0].Controller
	}
	return newSeries(meta, r.events[:n:n])
}
