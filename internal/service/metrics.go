package service

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fdpsim/internal/cache"
	"fdpsim/internal/series"
	"fdpsim/internal/sim"
)

// metrics is the service's instrumentation: plain atomics and
// mutex-guarded histograms, rendered in Prometheus text exposition format
// by render. No client library — the format is three lines per series.
type metrics struct {
	rejected  atomic.Uint64 // 429 backpressure rejections
	completed atomic.Uint64 // jobs reaching state done (incl. cache hits)
	failed    atomic.Uint64
	cancelled atomic.Uint64
	// Admitted submissions, answered from the result cache or queued to
	// simulate; jobs_submitted_total is their sum.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	running atomic.Int64 // gauge: simulations executing right now

	executions atomic.Uint64 // simulations actually executed by this process

	// Fleet coordination (multi-process shared store).
	fleetAdopted   atomic.Uint64 // jobs finished by adopting another worker's stored result
	claimsAcquired atomic.Uint64 // fingerprint claims won (fresh or stolen)
	claimsStolen   atomic.Uint64 // claims won by stealing an expired lease
	claimsWaited   atomic.Uint64 // held-claim observations (backoff waits)
	leaseLost      atomic.Uint64 // mid-run lease renewals that found the lease gone

	// Fabric tracing.
	spansRecorded atomic.Uint64 // job stage spans, plus one root span per finished sweep

	// Sweep fabric.
	sweepsSubmitted atomic.Uint64 // sweeps admitted via POST /v1/sweeps
	sweepCells      atomic.Uint64 // grid cells expanded across admitted sweeps

	simCycles atomic.Uint64 // simulated cycles across completed runs
	simNanos  atomic.Uint64 // wall-clock nanoseconds of their run stages (the run span)

	intervals atomic.Uint64 // FDP sampling intervals closed across all runs

	// insertions counts interval boundaries per (controller, insertion
	// position): which policy chose which position how often. Keyed by
	// the job's controller label ("fdp" when the config leaves the
	// default); map writes are rare (one per controller name ever seen),
	// so a mutex around a plain array is cheaper than atomic maps.
	insertMu   sync.Mutex
	insertions map[string]*[cache.NumInsertPos]uint64

	// The interval stream a job records for its "trace" or "series".
	traces         atomic.Uint64 // jobs that recorded an interval stream
	traceEvents    atomic.Uint64 // decision events recorded into job streams
	traceTruncated atomic.Uint64 // decision events dropped by the per-job limit

	// Interval-timeseries recording and the run-diff endpoint.
	seriesBytes atomic.Uint64 // encoded sidecar bytes produced
	// diffVerdicts counts GET /v1/diff requests by report verdict
	// ("pass"/"fail", plus "error" for requests that never produced a
	// report). Writes are per-request, so a mutex over a small map is fine.
	diffMu       sync.Mutex
	diffVerdicts map[string]uint64

	// Cycle-accounting and bus-occupancy aggregates over attribution jobs
	// (zero-sample intervals from non-attribution jobs contribute nothing).
	// Indexed by stallBucketNames / busKindNames order.
	stallCycles [7]atomic.Uint64
	busCycles   [3]atomic.Uint64

	queueWait histogram
	httpDur   histogram

	// tenantWait buckets queue wait per tenant (the SLO signal the fair
	// scheduler is judged by). Tenants appear on first observation; the
	// bucket ladder is queueWait's.
	tenantMu   sync.Mutex
	tenantWait map[string]*histogram
}

// observeTenantWait records one job's queue wait under its tenant.
func (m *metrics) observeTenantWait(tenant string, seconds float64) {
	m.tenantMu.Lock()
	h, ok := m.tenantWait[tenant]
	if !ok {
		h = &histogram{}
		h.init(defaultQueueWaitBuckets)
		m.tenantWait[tenant] = h
	}
	m.tenantMu.Unlock()
	h.observe(seconds)
}

// tenantWaits snapshots the per-tenant histograms in sorted-name order
// for deterministic scrape output.
func (m *metrics) tenantWaits() (names []string, hists []*histogram) {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	for name := range m.tenantWait {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hists = append(hists, m.tenantWait[name])
	}
	return names, hists
}

// stallBucketNames labels m.stallCycles in stats.CycleBuckets field order.
var stallBucketNames = [7]string{
	"retire_full", "retire_partial", "stall_load_miss",
	"stall_rob_full", "stall_dram_bp", "stall_ifetch", "stall_frontend",
}

// busKindNames labels m.busCycles (demand/prefetch/writeback).
var busKindNames = [3]string{"demand", "prefetch", "writeback"}

// defaultQueueWaitBuckets spans an idle pool (sub-millisecond) to a
// saturated one (many run-lengths).
var defaultQueueWaitBuckets = []float64{0.001, 0.01, 0.1, 1, 10}

// defaultHTTPBuckets spans in-memory handlers (tens of microseconds) to a
// long-polled SSE attach.
var defaultHTTPBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

func (m *metrics) init() {
	m.queueWait.init(defaultQueueWaitBuckets)
	m.httpDur.init(defaultHTTPBuckets)
	m.tenantWait = make(map[string]*histogram)
	// Pre-seed the default controller so the family is present (all-zero)
	// on an idle server, matching the old unlabeled series' behavior.
	m.insertions = map[string]*[cache.NumInsertPos]uint64{defaultController: new([cache.NumInsertPos]uint64)}
	// Pre-seed the diff verdicts so the family renders (all-zero) before
	// the first GET /v1/diff.
	m.diffVerdicts = map[string]uint64{"pass": 0, "fail": 0}
}

// countDiff records one GET /v1/diff request under its report verdict.
func (m *metrics) countDiff(verdict string) {
	m.diffMu.Lock()
	m.diffVerdicts[verdict]++
	m.diffMu.Unlock()
}

// defaultController labels series from jobs that leave Config.Controller
// empty: the paper's Table 2 policy is the default decision policy.
const defaultController = "fdp"

// observeInterval feeds the per-interval series from a run's interval
// stream.
func (m *metrics) observeInterval(ev *sim.DecisionEvent) {
	m.intervals.Add(1)
	if p, ok := cache.ParseInsertPos(ev.Insertion); ok {
		m.insertMu.Lock()
		counts, ok := m.insertions[ev.Controller]
		if !ok {
			counts = new([cache.NumInsertPos]uint64)
			m.insertions[ev.Controller] = counts
		}
		counts[p]++
		m.insertMu.Unlock()
	}
	if c := ev.Sample.Cycles; c.Total() > 0 {
		m.stallCycles[0].Add(c.RetireFull)
		m.stallCycles[1].Add(c.RetirePartial)
		m.stallCycles[2].Add(c.StallLoadMiss)
		m.stallCycles[3].Add(c.StallROBFull)
		m.stallCycles[4].Add(c.StallDRAMBP)
		m.stallCycles[5].Add(c.StallIFetch)
		m.stallCycles[6].Add(c.StallFrontend)
		m.busCycles[0].Add(ev.Sample.BusDemandCycles)
		m.busCycles[1].Add(ev.Sample.BusPrefetchCycles)
		m.busCycles[2].Add(ev.Sample.BusWritebackCycles)
	}
}

// histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// bucket le="x" counts observations ≤ x; the last implicit bucket is +Inf).
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

// init registers the bucket bounds, which must be finite and strictly
// increasing, as Prometheus requires (+Inf is the implicit final bucket).
func (h *histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]uint64, len(h.bounds)+1)
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// snapshot returns cumulative bucket counts plus sum and count.
func (h *histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.count
}

// fairnessIndex computes Jain's fairness index over each tenant's
// service-per-weight ratio (popped/weight): (Σx)² / (n·Σx²). 1.0 means
// every tenant received service exactly proportional to its weight;
// 1/n means one tenant got everything. Tenants that have never been
// served and have nothing queued are skipped (an idle tenant is not
// evidence of unfairness), and fewer than two active tenants report 1.
func fairnessIndex(tenants []TenantSnapshot) float64 {
	var xs []float64
	for _, t := range tenants {
		if t.Popped == 0 && t.Queued == 0 && t.Running == 0 {
			continue
		}
		w := float64(t.Weight)
		if w <= 0 {
			w = 1
		}
		xs = append(xs, float64(t.Popped)/w)
	}
	if len(xs) < 2 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// renderHistogram writes one histogram family.
func renderHistogram(w io.Writer, h *histogram, name, help string) {
	cum, sum, count := h.snapshot()
	fmt.Fprintf(w, "# HELP fdpserved_%s %s\n# TYPE fdpserved_%s histogram\n", name, help, name)
	for i, b := range h.bounds {
		fmt.Fprintf(w, "fdpserved_%s_bucket{le=\"%g\"} %d\n", name, b, cum[i])
	}
	fmt.Fprintf(w, "fdpserved_%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
	fmt.Fprintf(w, "fdpserved_%s_sum %g\n", name, sum)
	fmt.Fprintf(w, "fdpserved_%s_count %d\n", name, count)
}

// render writes every series. queued is sampled by the caller (it is the
// live queue length, owned by the Server); dccLevels is the distribution
// of Dynamic Configuration Counter levels across currently running jobs,
// keyed by controller label (inner index = level 1..5; index 0 unused),
// likewise sampled by the caller.
func (m *metrics) render(w io.Writer, queued int, uptime time.Duration, dccLevels map[string][6]int, tenants []TenantSnapshot, sweepsActive int) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP fdpserved_%s %s\n# TYPE fdpserved_%s counter\nfdpserved_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP fdpserved_%s %s\n# TYPE fdpserved_%s gauge\nfdpserved_%s %g\n", name, help, name, name, v)
	}

	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	counter("jobs_submitted_total", "Accepted job submissions (including cache hits).", hits+misses)
	counter("jobs_rejected_total", "Submissions rejected with 429 (queue full).", m.rejected.Load())
	counter("jobs_completed_total", "Jobs that reached state done (including cache hits).", m.completed.Load())
	counter("jobs_failed_total", "Jobs that reached state failed.", m.failed.Load())
	counter("jobs_cancelled_total", "Jobs cancelled while queued or running.", m.cancelled.Load())
	gauge("jobs_queued", "Jobs waiting in the FIFO queue.", float64(queued))
	gauge("jobs_running", "Simulations executing right now.", float64(m.running.Load()))

	counter("cache_hits_total", "Submissions answered from the result cache.", hits)
	counter("cache_misses_total", "Submissions that required a simulation.", misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	gauge("cache_hit_ratio", "cache_hits_total / (hits + misses).", ratio)

	cycles, nanos := m.simCycles.Load(), m.simNanos.Load()
	counter("sim_cycles_total", "Simulated cycles across finished runs.", cycles)
	cps := 0.0
	if nanos > 0 {
		cps = float64(cycles) / (float64(nanos) / 1e9)
	}
	gauge("sim_cycles_per_second", "Simulation throughput: simulated cycles per wall-clock second.", cps)
	gauge("uptime_seconds", "Seconds since the server started.", uptime.Seconds())
	// process_start_time_seconds is a Prometheus convention name
	// (clients compute process restarts from it), so unlike everything
	// else here it is deliberately not fdpserved_-prefixed.
	fmt.Fprintf(w, "# HELP process_start_time_seconds Unix time the server started, for rate() alignment.\n")
	fmt.Fprintf(w, "# TYPE process_start_time_seconds gauge\n")
	fmt.Fprintf(w, "process_start_time_seconds %g\n", float64(time.Now().Add(-uptime).Unix()))

	version, goVersion := buildVersion()
	fmt.Fprintf(w, "# HELP fdpserved_build_info Build metadata; the value is always 1.\n")
	fmt.Fprintf(w, "# TYPE fdpserved_build_info gauge\n")
	fmt.Fprintf(w, "fdpserved_build_info{version=%q,go_version=%q} 1\n", version, goVersion)

	intervals := m.intervals.Load()
	counter("sim_intervals_total", "FDP sampling intervals closed across all runs.", intervals)
	ips := 0.0
	if sec := uptime.Seconds(); sec > 0 {
		ips = float64(intervals) / sec
	}
	gauge("sim_intervals_per_second", "FDP feedback rate: sampling intervals closed per wall-clock second of uptime.", ips)

	fmt.Fprintf(w, "# HELP fdpserved_insertion_policy_total Interval boundaries by decision policy and the insertion position it chose for the next interval's prefetch fills.\n")
	fmt.Fprintf(w, "# TYPE fdpserved_insertion_policy_total counter\n")
	m.insertMu.Lock()
	ctls := make([]string, 0, len(m.insertions))
	byCtl := make(map[string][cache.NumInsertPos]uint64, len(m.insertions))
	for ctl, counts := range m.insertions {
		ctls = append(ctls, ctl)
		byCtl[ctl] = *counts
	}
	m.insertMu.Unlock()
	sort.Strings(ctls)
	for _, ctl := range ctls {
		counts := byCtl[ctl]
		for p := range counts {
			fmt.Fprintf(w, "fdpserved_insertion_policy_total{controller=%q,position=%q} %d\n",
				ctl, cache.InsertPos(p).String(), counts[p])
		}
	}

	fmt.Fprintf(w, "# HELP fdpserved_dcc_level_jobs Running jobs by decision policy and their current Dynamic Configuration Counter level (aggressiveness 1..5).\n")
	fmt.Fprintf(w, "# TYPE fdpserved_dcc_level_jobs gauge\n")
	if len(dccLevels) == 0 {
		// An idle server still renders the family: all-zero default rows.
		dccLevels = map[string][6]int{defaultController: {}}
	}
	dccCtls := make([]string, 0, len(dccLevels))
	for ctl := range dccLevels {
		dccCtls = append(dccCtls, ctl)
	}
	sort.Strings(dccCtls)
	for _, ctl := range dccCtls {
		dist := dccLevels[ctl]
		for level := 1; level <= 5; level++ {
			fmt.Fprintf(w, "fdpserved_dcc_level_jobs{controller=%q,level=\"%d\"} %d\n", ctl, level, dist[level])
		}
	}

	counter("executions_total", "Simulations actually executed by this process (cache hits and fleet-adopted results excluded).", m.executions.Load())
	counter("fleet_results_adopted_total", "Jobs finished by adopting a result another fleet worker stored.", m.fleetAdopted.Load())
	counter("fleet_claims_acquired_total", "Fingerprint claims this worker won (fresh or stolen).", m.claimsAcquired.Load())
	counter("fleet_claims_stolen_total", "Claims won by stealing an expired lease from a dead worker.", m.claimsStolen.Load())
	counter("fleet_claim_waits_total", "Backoff waits on a claim held live by another worker.", m.claimsWaited.Load())
	counter("fleet_lease_lost_total", "Mid-run lease renewals that found the lease stolen or gone.", m.leaseLost.Load())

	// The flight recorder is a view of the recorded spans, so its counts
	// follow from spans_recorded_total.
	recorded := m.spansRecorded.Load()
	held := min(recorded, flightRecorderSpans)
	counter("spans_recorded_total", "Fabric spans recorded: every job stage, and one root span per finished sweep.", recorded)
	counter("spans_dropped_total", "Recorded fabric spans older than the flight recorder's window (/debug/events).", recorded-held)
	gauge("spans_held", "Fabric spans in the flight recorder's window: the newest recorded (/debug/events).", float64(held))

	// Sweep families keep the sim_sweep_* naming the sweep fabric is
	// documented under (docs/SWEEPS.md) rather than the fdpserved_ prefix.
	fmt.Fprintf(w, "# HELP sim_sweep_submitted_total Sweeps admitted via POST /v1/sweeps.\n# TYPE sim_sweep_submitted_total counter\nsim_sweep_submitted_total %d\n", m.sweepsSubmitted.Load())
	fmt.Fprintf(w, "# HELP sim_sweep_cells_total Grid cells expanded across admitted sweeps.\n# TYPE sim_sweep_cells_total counter\nsim_sweep_cells_total %d\n", m.sweepCells.Load())
	fmt.Fprintf(w, "# HELP sim_sweep_active Sweeps with cells not yet in a terminal state.\n# TYPE sim_sweep_active gauge\nsim_sweep_active %d\n", sweepsActive)

	if len(tenants) > 0 {
		fmt.Fprintf(w, "# HELP fdpserved_tenant_queued Jobs waiting in each tenant's queue.\n# TYPE fdpserved_tenant_queued gauge\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "fdpserved_tenant_queued{tenant=%q} %d\n", t.Name, t.Queued)
		}
		fmt.Fprintf(w, "# HELP fdpserved_tenant_running Jobs each tenant has running right now.\n# TYPE fdpserved_tenant_running gauge\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "fdpserved_tenant_running{tenant=%q} %d\n", t.Name, t.Running)
		}
		fmt.Fprintf(w, "# HELP fdpserved_tenant_weight Fair-share weight in the smooth weighted round-robin scheduler.\n# TYPE fdpserved_tenant_weight gauge\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "fdpserved_tenant_weight{tenant=%q} %d\n", t.Name, t.Weight)
		}
		fmt.Fprintf(w, "# HELP fdpserved_tenant_jobs_popped_total Jobs handed to workers, per tenant.\n# TYPE fdpserved_tenant_jobs_popped_total counter\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "fdpserved_tenant_jobs_popped_total{tenant=%q} %d\n", t.Name, t.Popped)
		}
		// Starvation: how long each tenant's oldest queued job has waited.
		// A tenant whose oldest wait grows while others pop is being starved.
		fmt.Fprintf(w, "# HELP fdpserved_tenant_oldest_wait_seconds Age of each tenant's oldest queued job (0 when its queue is empty).\n# TYPE fdpserved_tenant_oldest_wait_seconds gauge\n")
		for _, t := range tenants {
			fmt.Fprintf(w, "fdpserved_tenant_oldest_wait_seconds{tenant=%q} %g\n", t.Name, t.OldestWait.Seconds())
		}
		gauge("scheduler_fairness", "Jain fairness index over per-tenant popped/weight ratios (1 = perfectly weight-proportional service).", fairnessIndex(tenants))
	}

	// Per-tenant queue-wait SLO histograms: one family, one series set per
	// tenant that has had a job dispatched.
	if names, hists := m.tenantWaits(); len(names) > 0 {
		fmt.Fprintf(w, "# HELP fdpserved_tenant_queue_wait_seconds Time jobs spent waiting for a worker, per tenant.\n# TYPE fdpserved_tenant_queue_wait_seconds histogram\n")
		for i, name := range names {
			h := hists[i]
			cum, sum, count := h.snapshot()
			for k, b := range h.bounds {
				fmt.Fprintf(w, "fdpserved_tenant_queue_wait_seconds_bucket{tenant=%q,le=\"%g\"} %d\n", name, b, cum[k])
			}
			fmt.Fprintf(w, "fdpserved_tenant_queue_wait_seconds_bucket{tenant=%q,le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
			fmt.Fprintf(w, "fdpserved_tenant_queue_wait_seconds_sum{tenant=%q} %g\n", name, sum)
			fmt.Fprintf(w, "fdpserved_tenant_queue_wait_seconds_count{tenant=%q} %d\n", name, count)
		}
	}

	counter("traces_collected_total", "Jobs that recorded an FDP interval stream (a decision trace or a series).", m.traces.Load())
	counter("trace_events_total", "Decision events recorded into job interval streams.", m.traceEvents.Load())
	counter("trace_events_truncated_total", "Decision events dropped by the per-job interval-stream limit.", m.traceTruncated.Load())

	// Series families keep the sim_* naming like sim_intervals_total: they
	// count simulation observables, not daemon mechanics.
	counter("sim_series_points_total", "Catalog points (intervals x catalog width) the recorded interval streams yield.", m.traceEvents.Load()*uint64(series.NumMetrics))
	counter("sim_series_bytes_total", "Encoded interval-timeseries sidecar bytes produced.", m.seriesBytes.Load())

	fmt.Fprintf(w, "# HELP fdpserved_diff_requests_total GET /v1/diff requests by run-diff report verdict.\n# TYPE fdpserved_diff_requests_total counter\n")
	m.diffMu.Lock()
	verdicts := make([]string, 0, len(m.diffVerdicts))
	for v := range m.diffVerdicts {
		verdicts = append(verdicts, v)
	}
	byVerdict := make(map[string]uint64, len(m.diffVerdicts))
	for v, n := range m.diffVerdicts {
		byVerdict[v] = n
	}
	m.diffMu.Unlock()
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Fprintf(w, "fdpserved_diff_requests_total{verdict=%q} %d\n", v, byVerdict[v])
	}

	fmt.Fprintf(w, "# HELP fdpserved_sim_stall_cycles_total Simulated core cycles by top-down cause, across attribution jobs.\n")
	fmt.Fprintf(w, "# TYPE fdpserved_sim_stall_cycles_total counter\n")
	for i, name := range stallBucketNames {
		fmt.Fprintf(w, "fdpserved_sim_stall_cycles_total{cause=%q} %d\n", name, m.stallCycles[i].Load())
	}
	fmt.Fprintf(w, "# HELP fdpserved_sim_bus_cycles_total Simulated data-bus occupancy cycles by transaction kind, across attribution jobs.\n")
	fmt.Fprintf(w, "# TYPE fdpserved_sim_bus_cycles_total counter\n")
	for i, name := range busKindNames {
		fmt.Fprintf(w, "fdpserved_sim_bus_cycles_total{kind=%q} %d\n", name, m.busCycles[i].Load())
	}

	// Go runtime health, sampled at scrape time.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine()))
	gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	gauge("go_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", float64(ms.HeapSys))
	counter("go_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))
	gauge("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)

	renderHistogram(w, &m.queueWait, "queue_wait_seconds", "Time jobs spent waiting for a worker.")
	renderHistogram(w, &m.httpDur, "http_request_duration_seconds", "HTTP API request handling time (SSE streams count their full attachment).")
}
