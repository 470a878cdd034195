package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"fdpsim/internal/cache"
	"fdpsim/internal/control"
	"fdpsim/internal/core"
	"fdpsim/internal/series"
	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
	"fdpsim/internal/store"
	"fdpsim/internal/trace"
)

// The replay probes time layers the run loop calls too rarely, or too
// deep inside, to wrap: each is fed inputs captured from the traced run —
// the L2 demand-block stream, the DecisionEvents, the recorded series and
// the run's results — never synthetic ones.

// probeSink keeps probe results alive.
var probeSink uint64

// traced is everything the traced phase captured for the probes.
type traced struct {
	sm        *seams
	outcomes  []outcome
	wall      time.Duration // the traced runs
	untraced  float64       // the same runs untraced (median pass), ns
	miss, hit roundResult   // the service probe's two rounds
	ledger    *store.Store  // the store the miss round wrote
	dirs      []string      // scratch directories to remove after the probes
}

// layerMetrics computes every per-layer metric from a traced phase.
func (e *env) layerMetrics(t *traced) map[string]float64 {
	m := map[string]float64{}
	var insts, cycles, allCycles uint64
	var ctr stats.Counters
	for _, o := range t.outcomes {
		insts += o.insts
		cycles += o.cycles
		allCycles += o.allCycles
		for _, c := range o.counters {
			addCounters(&ctr, &c)
		}
	}

	// workload and trace: the in-run seam times whichever source the run
	// pulled from; the probe times the other over the same op count.
	var runSrc, runTrace seamTime
	for _, s := range t.sm.sources {
		if s.replay {
			runTrace.add(s.t)
		} else {
			runSrc.add(s.t)
		}
	}
	genNS, decNS, decBytes, decOps := e.sourceProbe(t.sm)
	m["workload.next_ns"] = runSrc.perCall(e.timer)
	if runSrc.calls == 0 {
		m["workload.next_ns"] = genNS
	}
	m["trace.next_ns"] = runTrace.perCall(e.timer)
	if runTrace.calls == 0 {
		m["trace.next_ns"] = ratio(decNS, float64(decOps))
	}
	m["trace.decode_mb_per_s"] = ratio(float64(decBytes)/1e6, decNS/1e9)

	var pf seamTime
	var issued uint64
	for _, p := range t.sm.prefetchers {
		pf.add(p.t)
		issued += p.issued
	}
	m["prefetch.observe_ns"] = pf.perCall(e.timer)
	m["prefetch.observes_per_kinst"] = ratio(float64(pf.calls), float64(insts)/1000)
	m["prefetch.issued_per_observe"] = ratio(float64(issued), float64(pf.calls))
	m["prefetch.accuracy"] = ratio(float64(ctr.PrefUsed), float64(ctr.PrefSent))
	m["prefetch.lateness"] = ratio(float64(ctr.PrefLate), float64(ctr.PrefUsed))

	m["cache.l1d_miss_rate"] = ratio(float64(ctr.L1Misses), float64(ctr.L1Accesses))
	m["cache.l2_miss_rate"] = ratio(float64(ctr.L2DemandMisses), float64(ctr.L2DemandAccesses))
	m["cache.l2_replay_ns"] = e.l2Replay(t.sm)

	var attr stats.Attribution
	var mshrSum, mshrN, queueSum, queueN float64
	for _, o := range t.outcomes {
		for _, a := range o.attribution {
			if a == nil {
				continue
			}
			addAttribution(&attr, a)
			mshrSum += a.MSHROcc.Mean() * float64(a.MSHROcc.Total())
			mshrN += float64(a.MSHROcc.Total())
			q := a.QueueDemand.Mean() + a.QueuePrefetch.Mean() + a.QueueWriteback.Mean()
			queueSum += q * float64(a.QueueDemand.Total())
			queueN += float64(a.QueueDemand.Total())
		}
	}
	m["cache.mshr_occupancy"] = ratio(mshrSum, mshrN)
	m["mem.bus_util"] = attr.BusUtilization()
	m["mem.row_hit_rate"] = attr.RowHitRate()
	m["mem.queue_occupancy"] = ratio(queueSum, queueN)
	m["mem.prefetch_bus_share"] = ratio(float64(attr.BusPrefetchCycles), float64(attr.BusOccupancy()))

	b := attr.Cycles
	m["cpu.retire_share"] = b.Share(b.RetireFull + b.RetirePartial)
	m["cpu.stall_load_share"] = b.Share(b.StallLoadMiss + b.StallROBFull)
	m["cpu.stall_dram_bp_share"] = b.Share(b.StallDRAMBP)
	m["cpu.stall_ifetch_share"] = b.Share(b.StallIFetch)

	var intervals int
	var tr seamTime
	for _, x := range t.sm.tracers {
		intervals += len(x.events)
		tr.add(x.t)
	}
	m["core.intervals_per_minst"] = ratio(float64(intervals), float64(insts)/1e6)
	m["core.boundary_ns"] = e.boundaryProbe(t.sm)
	m["control.decide_ns"] = e.decideProbe(t.sm)

	m["sim.host_ns_per_cycle"] = ratio(t.untraced, float64(allCycles))
	seam := runSrc.net(e.timer) + runTrace.net(e.timer) + pf.net(e.timer) + tr.net(e.timer)
	m["sim.self_ns_per_inst"] = ratio(t.untraced-seam, float64(insts))

	docs := e.seriesProbe(t.sm, m, intervals)
	e.storeProbe(t, docs, m)
	e.serviceMetrics(t, m)
	m["tracing.overhead"] = ratio(float64(t.wall.Nanoseconds()), t.untraced)
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// addCounters sums two counter sets field by field.
func addCounters(dst, src *stats.Counters) {
	dst.L1Accesses += src.L1Accesses
	dst.L1Misses += src.L1Misses
	dst.L2DemandAccesses += src.L2DemandAccesses
	dst.L2DemandMisses += src.L2DemandMisses
	dst.PrefSent += src.PrefSent
	dst.PrefUsed += src.PrefUsed
	dst.PrefLate += src.PrefLate
}

// addAttribution sums the attribution fields the metrics read.
func addAttribution(dst, src *stats.Attribution) {
	c, s := &dst.Cycles, src.Cycles
	c.RetireFull += s.RetireFull
	c.RetirePartial += s.RetirePartial
	c.StallLoadMiss += s.StallLoadMiss
	c.StallROBFull += s.StallROBFull
	c.StallDRAMBP += s.StallDRAMBP
	c.StallIFetch += s.StallIFetch
	c.StallFrontend += s.StallFrontend
	dst.BusDemandCycles += src.BusDemandCycles
	dst.BusPrefetchCycles += src.BusPrefetchCycles
	dst.BusWritebackCycles += src.BusWritebackCycles
	dst.RowHits += src.RowHits
	dst.RowMisses += src.RowMisses
}

// sourceProbe times, over each source's op count in the traced run, the
// in-memory generator (ns per op) and the trace-v2 decode of the same
// stream (total ns, bytes and ops).
func (e *env) sourceProbe(sm *seams) (genNS, decNS float64, decBytes, decOps uint64) {
	var genTotal time.Duration
	var genOps uint64
	for _, ts := range sm.sources {
		n := ts.t.calls
		src, err := ts.regen()
		if err != nil || n == 0 {
			continue
		}
		var buf bytes.Buffer
		w, err := trace.NewWriterV2(&buf, src.Name())
		if err != nil {
			continue
		}
		start := time.Now()
		for k := uint64(0); k < n; k++ {
			op := src.Next()
			probeSink += op.Addr
		}
		genTotal += time.Since(start)
		genOps += n
		// Encode the same stream (untimed), then time its decode.
		src, _ = ts.regen()
		for k := uint64(0); k < n; k++ {
			if w.Write(src.Next()) != nil {
				break
			}
		}
		if w.Close() != nil {
			continue
		}
		data := buf.Bytes()
		start = time.Now()
		r, err := trace.NewReaderV2(bytes.NewReader(data))
		if err != nil {
			continue
		}
		for k := uint64(0); k < n; k++ {
			op := r.Next()
			probeSink += op.Addr
		}
		decNS += float64(time.Since(start).Nanoseconds())
		decBytes += uint64(len(data))
		decOps += n
	}
	return ratio(float64(genTotal.Nanoseconds()), float64(genOps)), decNS, decBytes, decOps
}

// l2Replay replays each run's captured L2 demand-block stream through a
// fresh L2-shaped cache (Access, and Insert on a miss) and returns ns per
// access.
func (e *env) l2Replay(sm *seams) float64 {
	var total time.Duration
	var n int
	for i, p := range sm.prefetchers {
		cfg := sm.fdp[i]
		c := cache.New("L2", cfg.L2Blocks, cfg.L2Ways)
		start := time.Now()
		for _, b := range p.demand {
			if c.Access(b) == nil {
				c.Insert(b, cache.PosMRU, false, false)
			}
		}
		total += time.Since(start)
		n += len(p.demand)
		probeSink += c.Misses()
	}
	return ratio(float64(total.Nanoseconds()), float64(n))
}

// boundaryProbe replays every interval's raw event counts into a fresh
// core.FDP through its On* hooks and times the eviction that closes each
// interval: the boundary (Equation 1, classification, decision).
func (e *env) boundaryProbe(sm *seams) float64 {
	var total float64
	var n int
	for rep := 0; rep < 64 && n < 2000; rep++ {
		for i, tr := range sm.tracers {
			if len(tr.events) == 0 {
				continue
			}
			f := core.New(sm.fdp[i].FDP)
			tint := f.Config().TInterval
			for _, ev := range tr.events {
				r := ev.Raw
				for k := uint64(0); k < r.PrefSent; k++ {
					f.OnPrefetchSent()
				}
				late := min(r.PrefLate, r.PrefUsed)
				for k := uint64(0); k < late; k++ {
					f.OnPrefetchLate()
				}
				for k := uint64(0); k < r.PrefUsed-late; k++ {
					f.OnPrefetchUsed()
				}
				for k := uint64(0); k < r.DemandMisses; k++ {
					f.OnDemandMiss(k)
				}
				for k := uint64(1); k < tint; k++ {
					f.OnEviction(k, true, false, false)
				}
				t0 := time.Now()
				f.OnEviction(0, true, false, false)
				total += float64(time.Since(t0).Nanoseconds()) - e.timer
				n++
			}
			probeSink += f.Intervals()
		}
	}
	return ratio(total, float64(n))
}

// signals rebuilds the Signals each boundary's controller saw from the
// run's DecisionEvents.
func signals(events []sim.DecisionEvent, cfg sim.Config) []core.Signals {
	ins := cfg.FDP.StaticInsertion
	if cfg.FDP.DynamicInsertion {
		ins = cache.PosMID
	}
	out := make([]core.Signals, 0, len(events))
	for _, ev := range events {
		s := core.Signals{
			Interval: ev.Interval, Accuracy: ev.Accuracy, Lateness: ev.Lateness, Pollution: ev.Pollution,
			Late: ev.Late, Polluting: ev.Polluting, Raw: ev.Raw, Decayed: ev.Decayed,
			Level: ev.DCCBefore, Insertion: ins, BusUtilization: ev.BusUtil,
		}
		switch ev.AccuracyClass {
		case core.AccHigh.String():
			s.AccClass = core.AccHigh
		case core.AccMedium.String():
			s.AccClass = core.AccMedium
		}
		out = append(out, s)
		ins = insertPos(ev.Insertion)
	}
	return out
}

func insertPos(name string) cache.InsertPos {
	for p := cache.PosLRU; p < cache.NumInsertPos; p++ {
		if p.String() == name {
			return p
		}
	}
	return cache.PosMID
}

// decideProbe replays the rebuilt Signals through the fdp and tree
// controllers and returns ns per Decide. The fdp controller must
// reproduce every recorded counter update; a mismatch is a failed op.
func (e *env) decideProbe(sm *seams) float64 {
	var sigs []core.Signals
	for i, tr := range sm.tracers {
		s := signals(tr.events, sm.fdp[i])
		if sm.fdp[i].FDP.DynamicAggressiveness {
			fdp, err := control.Build("fdp", control.Params{Thresholds: sm.fdp[i].FDP.Thresholds})
			if err != nil {
				e.tally.attempted++
				e.fail("control: %v", err)
				return 0
			}
			e.tally.attempted++
			for k := range s {
				if got := fdp.Decide(s[k]).Level; got != tr.events[k].DCCAfter {
					e.fail("control: replayed interval %d decided level %d, the run decided %d", k+1, got, tr.events[k].DCCAfter)
					break
				}
			}
		}
		sigs = append(sigs, s...)
	}
	if len(sigs) == 0 {
		return 0
	}
	var total time.Duration
	var n int
	for _, name := range []string{"fdp", "tree"} {
		ctrl, err := control.Build(name, control.Params{Thresholds: core.DefaultThresholds()})
		if err != nil {
			e.tally.attempted++
			e.fail("control %s: %v", name, err)
			continue
		}
		reps := 1 + 200_000/len(sigs)
		start := time.Now()
		for r := 0; r < reps; r++ {
			for k := range sigs {
				probeSink += uint64(ctrl.Decide(sigs[k]).Level)
			}
		}
		total += time.Since(start)
		n += reps * len(sigs)
	}
	return ratio(float64(total.Nanoseconds()), float64(n))
}

// seriesProbe times encoding and decoding each run's recorded series and
// returns the encoded documents, one per tracer.
func (e *env) seriesProbe(sm *seams, m map[string]float64, intervals int) [][]byte {
	m["series.append_ns"] = appendProbe(sm)
	docs := make([][]byte, len(sm.tracers))
	var enc, dec time.Duration
	var nenc, ndec int
	var bytesTotal int
	for i, t := range sm.tracers {
		s := t.rec.Series()
		var doc []byte
		var err error
		start := time.Now()
		for r := 0; r < 20; r++ {
			if doc, err = series.Encode(s); err != nil {
				break
			}
		}
		enc += time.Since(start)
		nenc += 20
		if err != nil {
			e.tally.attempted++
			e.fail("series encode: %v", err)
			continue
		}
		docs[i] = doc
		bytesTotal += len(doc)
		start = time.Now()
		for r := 0; r < 20; r++ {
			if _, err = series.Decode(doc); err != nil {
				break
			}
		}
		dec += time.Since(start)
		ndec += 20
		if err != nil {
			e.tally.attempted++
			e.fail("series decode: %v", err)
		}
	}
	m["series.encode_us"] = ratio(float64(enc.Nanoseconds())/1e3, float64(nenc))
	m["series.decode_us"] = ratio(float64(dec.Nanoseconds())/1e3, float64(ndec))
	m["series.bytes_per_interval"] = ratio(float64(bytesTotal), float64(intervals))
	return docs
}

// appendProbe replays every recorded DecisionEvent into a series.Recorder
// with room reserved for the whole replay, so the time per append is the
// recorder's steady state rather than its first column growth (the
// in-run seam, at a few dozen intervals a run, mostly times the latter).
func appendProbe(sm *seams) float64 {
	var events []sim.DecisionEvent
	for _, tr := range sm.tracers {
		events = append(events, tr.events...)
	}
	if len(events) == 0 {
		return 0
	}
	reps := 1 + 20_000/len(events)
	rec := &series.Recorder{}
	rec.Reserve(reps * len(events))
	start := time.Now()
	for r := 0; r < reps; r++ {
		for k := range events {
			ev := events[k]
			ev.Core = 0
			rec.TraceDecision(ev)
		}
	}
	d := time.Since(start)
	probeSink += uint64(rec.Len())
	return ratio(float64(d.Nanoseconds()), float64(reps*len(events)))
}

// storeProbe replays the traced run's results (and series documents)
// into a scratch store through Put, Get, PutSeries/GetSeries and
// AppendProvenance; every Get must return the result it was given.
func (e *env) storeProbe(t *traced, docs [][]byte, m map[string]float64) {
	var results []sim.Result
	for _, o := range t.outcomes {
		results = append(results, o.results...)
	}
	dir, err := e.tempDir("probe-store-")
	var st *store.Store
	if err == nil {
		defer os.RemoveAll(dir)
		st, err = store.Open(dir)
	}
	if err != nil || len(results) == 0 {
		e.tally.attempted++
		e.fail("store probe: %d results, %v", len(results), err)
		return
	}
	var put, get, getSeries, ledger []float64
	for rep := 0; len(put) < 40; rep++ {
		for i := range results {
			sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench %d %d", rep, i)))
			fp := hex.EncodeToString(sum[:])
			t0 := time.Now()
			err := st.Put(fp, results[i])
			put = append(put, ms(time.Since(t0)))
			e.tally.attempted++
			if err != nil {
				e.fail("store put: %v", err)
				continue
			}
			t0 = time.Now()
			back, ok := st.Get(fp)
			get = append(get, ms(time.Since(t0)))
			if !ok || digestResult(&back) != digestResult(&results[i]) {
				e.fail("store get returned a different result")
			}
			// Tracers come one per core, like results; an SMT run adds a
			// tracer but no per-core result, so it comes last.
			var doc []byte
			if i < len(docs) {
				doc = docs[i]
			}
			if doc != nil && st.PutSeries(fp, doc) == nil {
				t0 = time.Now()
				got, ok := st.GetSeries(fp)
				getSeries = append(getSeries, ms(time.Since(t0)))
				if !ok || !bytes.Equal(got, doc) {
					e.fail("store get-series returned a different document")
				}
			}
			t0 = time.Now()
			err = st.AppendProvenance(store.Provenance{Fingerprint: fp, Outcome: store.OutcomeExecuted,
				Submitted: time.Now(), Finished: time.Now(), Worker: "perfbench"})
			ledger = append(ledger, ms(time.Since(t0)))
			if err != nil {
				e.fail("store ledger: %v", err)
			}
		}
	}
	m["store.put_ms"] = median(put)
	m["store.get_ms"] = median(get)
	m["store.get_series_ms"] = median(getSeries)
	m["store.ledger_append_ms"] = median(ledger)
}

// serviceMetrics reads the service probe's two rounds: client-side POST
// round trips, the queue wait each job status reports, and the run and
// store times the provenance ledger recorded.
func (e *env) serviceMetrics(t *traced, m map[string]float64) {
	var submit, wait, run, storeMS []float64
	fps := map[string]bool{}
	for _, o := range t.miss.jobs {
		if o.err != nil {
			continue
		}
		submit = append(submit, ms(o.submitRT))
		if st := o.status; st.StartedAt != nil {
			wait = append(wait, ms(st.StartedAt.Sub(st.SubmittedAt)))
		}
		fps[o.status.Fingerprint] = true
	}
	for fp := range fps {
		lines, err := t.ledger.ReadProvenance(fp)
		if err != nil {
			e.tally.attempted++
			e.fail("ledger %s: %v", fp[:12], err)
			continue
		}
		for _, p := range lines {
			if p.Outcome == store.OutcomeExecuted {
				run = append(run, p.RunMS)
				storeMS = append(storeMS, p.StoreMS)
			}
		}
	}
	m["service.submit_ms_p50"] = median(submit)
	m["service.queue_wait_ms_p50"] = median(wait)
	m["service.run_ms_p50"] = median(run)
	m["service.store_ms_p50"] = median(storeMS)
	total := len(t.miss.jobs) + len(t.hit.jobs)
	m["service.hit_ratio"] = ratio(float64(t.miss.hits+t.hit.hits), float64(total))
	m["service.executions_per_fp"] = ratio(float64(t.miss.executions+t.hit.executions), float64(len(fps)))
}
