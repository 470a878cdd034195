package sim

import (
	"fdpsim/internal/cache"
	"fdpsim/internal/control"
	"fdpsim/internal/core"
	"fdpsim/internal/cpu"
	"fdpsim/internal/mem"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/stats"
)

// memClient consumes completion events from the hierarchy: a CPU (or a
// test fake) registered with attach/addClient. Events carry the client id,
// so several cores or SMT threads can share one hierarchy.
type memClient interface {
	// CompleteLoad delivers the data for the load occupying ROB slot
	// robIdx with load sequence number seq.
	CompleteLoad(robIdx int32, seq uint64)
	// CompleteFetch unblocks instruction dispatch after a fetch miss.
	CompleteFetch()
}

// l1Miss tracks one outstanding L1-level miss so that same-block requests
// merge. A block may be wanted by the data side, the instruction-fetch
// side, or both (self-modifying-code layouts aside, "both" only happens
// when a workload reads its own code region). Waiters are pooled event
// nodes, FIFO per side: waiters[0] holds evLoadDone nodes, waiters[1]
// evFetchDone nodes. Entries themselves live in a slab indexed by the
// l1Misses block index.
type l1Miss struct {
	waiters   [2]evList
	anyStore  bool
	wantData  bool
	wantFetch bool
}

// demandRetry is one structurally-stalled demand access awaiting replay.
type demandRetry struct {
	block cache.Addr
	pc    uint64
}

// hierarchy is the two-level cache hierarchy plus prefetcher, FDP engine
// and queues of the baseline processor, in front of a DRAM it may share
// with other cores. CPUs attach via attach (or addClient) and submit
// accesses through Access/Fetch; the run loop calls Tick once per cycle
// before the CPUs tick. All per-access bookkeeping — completion
// continuations, miss merging, queue entries, DRAM requests, the
// prefetcher notification — is drawn from pools and scratch owned here,
// so the steady-state simulation loop performs no heap allocation.
type hierarchy struct {
	cfg    *Config
	cyc    uint64
	coreID int
	ctr    *stats.Counters
	l1     *cache.Cache
	l1i    *cache.Cache // nil when instruction fetch is not modeled
	l2     *cache.Cache
	mshr   *cache.MSHRFile
	dram   *mem.DRAM
	pf     prefetch.Prefetcher
	fdp    *core.FDP
	pc     *cache.Cache // optional prefetch cache
	pool   *eventPool
	wh     *wheel

	clients []memClient

	// Outstanding L1 misses: slab + free list, addressed by block. Loads
	// keep at most a ROB's worth open and the MSHR file holds at most
	// MSHRs, so the slab, its free list and its index are built for
	// missDepth misses. Store misses parked behind a full MSHR file have
	// no such bound; past missDepth the three grow.
	l1Misses cache.BlockIndex
	missSlab []l1Miss
	missFree []int32

	prefQ    ring[cache.Addr] // Prefetch Request Queue, PrefQueueCap deep
	prefQSet cache.BlockIndex // membership filter for the queue; no values

	// pendingDemand holds demand L2 accesses stalled on a full MSHR file
	// or bus queue; retried in order each cycle. Each holds an open L1
	// miss, so it is built missDepth deep.
	pendingDemand ring[demandRetry]
	// pendingWB holds writebacks stalled on a full writeback queue; it is
	// built one such queue deep.
	pendingWB ring[cache.Addr]

	// onFillFn is the one method value handed to every DRAM read request
	// (binding it per request would allocate).
	onFillFn func(*mem.Request)

	// pfEv and pfOut are the reusable prefetcher-notification event and
	// output scratch; see prefetch.Prefetcher's Observe contract.
	pfEv  prefetch.Event
	pfOut []uint64

	// attr holds the cycle-accounting / bandwidth-attribution state when
	// Config.Attribution is set; nil otherwise (one branch per hook site).
	attr *attribution

	// ctrlName is the feedback policy's registry name, precomputed for
	// allocation-free tracing.
	ctrlName string

	// sigLastCycle/sigLastStats are the previous interval boundary's
	// clock and bus counters; fillSignals diffs against them to give the
	// controller per-interval bandwidth observables.
	sigLastCycle uint64
	sigLastStats mem.Stats
}

// fillSignals enriches a Signals value with the bandwidth observables
// the core engine cannot measure itself: the interval's span in cycles
// and the data-bus occupancy over it (total and prefetch-only),
// reconstructed from the DRAM's started-transfer counters. Installed as
// the FDP engine's OnSignals hook; called once per interval boundary,
// allocation-free.
func (h *hierarchy) fillSignals(s *core.Signals) {
	ms := h.dram.Stats()
	bus := h.busCycles(ms, h.sigLastStats)
	s.IntervalCycles = h.cyc - h.sigLastCycle
	s.BusBusyCycles = bus[mem.Demand] + bus[mem.Prefetch] + bus[mem.Writeback]
	s.BusPrefetchCycles = bus[mem.Prefetch]
	h.sigLastCycle = h.cyc
	h.sigLastStats = ms
	if s.IntervalCycles > 0 {
		// Transfers that straddle the boundary can push the estimate past
		// the interval span; utilization is a fraction, so clamp.
		s.BusUtilization = min(float64(s.BusBusyCycles)/float64(s.IntervalCycles), 1)
	}
}

// busCycles returns the data-bus cycles each request kind (indexed by
// mem.Kind) occupied between two DRAM statistics snapshots: the transfers
// started in between times the transfer time.
func (h *hierarchy) busCycles(cur, prev mem.Stats) (c [3]uint64) {
	tr := h.dram.Config().Transfer
	for k := range c {
		c[k] = (cur.Started[k] - prev.Started[k]) * tr
	}
	return c
}

// newHierarchy builds core coreID's hierarchy around the DRAM it shares
// with the rest of the topology. The run loop ticks the DRAM and routes
// its OnStart events to the owning hierarchy's onBusStart.
func newHierarchy(cfg *Config, ctr *stats.Counters, dram *mem.DRAM, coreID int) *hierarchy {
	depth := missDepth(cfg)
	// Each in-flight load holds at most one event (its L1-hit completion
	// or its place on a miss's waiter list), each open miss at most one
	// fill, and a fetch stall one: at most ROB + missDepth + 1 events.
	pool := newEventPool(2 * depth)
	h := &hierarchy{
		cfg:           cfg,
		ctr:           ctr,
		coreID:        coreID,
		l1:            cache.New("L1D", cfg.L1Blocks, cfg.L1Ways),
		l1i:           buildL1I(cfg),
		l2:            cache.New("L2", cfg.L2Blocks, cfg.L2Ways),
		mshr:          cache.NewMSHRFile(cfg.MSHRs),
		dram:          dram,
		pool:          pool,
		wh:            newWheel(4096, pool),
		l1Misses:      cache.NewBlockIndex(depth),
		missSlab:      make([]l1Miss, 0, depth),
		missFree:      make([]int32, 0, depth),
		prefQ:         newRing[cache.Addr](cfg.PrefQueueCap),
		prefQSet:      cache.NewBlockIndex(cfg.PrefQueueCap),
		pendingDemand: newRing[demandRetry](depth),
		pendingWB:     newRing[cache.Addr](cfg.DRAM.QueueCap),
		pfOut:         make([]uint64, 0, 64),
	}
	h.wh.run = h.runEvent
	h.onFillFn = h.onFill
	h.fdp = core.New(cfg.FDP)
	h.ctrlName = "fdp"
	if cfg.Controller != "" && cfg.Controller != "fdp" {
		// Validate vetted the name and model; a Build failure here would
		// mean the config bypassed validation, which Run never allows.
		ctrl, err := control.Build(cfg.Controller, control.Params{
			Thresholds:   cfg.FDP.Thresholds,
			AccuracyOnly: cfg.FDP.AccuracyOnly,
			Model:        cfg.ControllerModel,
		})
		if err != nil {
			panic("sim: unvalidated controller config: " + err.Error())
		}
		h.ctrlName = ctrl.Name()
		h.fdp.Decider = ctrl
	}
	h.fdp.OnSignals = h.fillSignals
	h.pf = buildPrefetcher(cfg)
	if h.pf != nil {
		if cfg.StaticLevel > 0 {
			h.pf.SetLevel(cfg.StaticLevel)
		} else {
			h.pf.SetLevel(cfg.FDP.InitLevel)
			h.fdp.OnLevel = h.pf.SetLevel
		}
	}
	if cfg.PrefCacheBlocks > 0 {
		h.pc = cache.New("PrefCache", cfg.PrefCacheBlocks, cfg.PrefCacheWays)
	}
	h.l1.OnEvict = h.onL1Evict
	h.l2.OnEvict = h.onL2Evict
	if cfg.Attribution {
		h.attr = newAttribution(cfg)
		if h.pc != nil {
			// Capacity victims of the prefetch cache are unused prefetches
			// (demand uses leave via Invalidate, which skips OnEvict).
			h.pc.OnEvict = func(ev cache.Evicted) { h.attrPrefEvicted(ev.Block.Tag) }
		}
	}
	return h
}

// missDepth is the working depth of the L1-miss table and the demand
// retry queue: an MSHR file's worth of misses plus a ROB's worth of
// loads (cpu.New's 128 entries when CPU.ROB is 0).
func missDepth(cfg *Config) int {
	rob := cfg.CPU.ROB
	if rob <= 0 {
		rob = cpu.DefaultConfig().ROB
	}
	return cfg.MSHRs + rob
}

func buildL1I(cfg *Config) *cache.Cache {
	if !cfg.ModelIFetch {
		return nil
	}
	blocks, ways := cfg.L1IBlocks, cfg.L1IWays
	if blocks <= 0 {
		blocks, ways = 1024, 4
	}
	return cache.New("L1I", blocks, ways)
}

func buildPrefetcher(cfg *Config) prefetch.Prefetcher {
	switch cfg.Prefetcher {
	case PrefStream:
		p := prefetch.NewStream(cfg.StreamEntries)
		p.SetPerStreamRamp(cfg.PerStreamRamp)
		return p
	case PrefGHB:
		return prefetch.NewGHB(256, 256, 1024)
	case PrefStride:
		return prefetch.NewStride(512)
	case PrefNextLine:
		return prefetch.NewNextLine()
	case PrefDahlgren:
		return prefetch.NewDahlgren(0.75, 0.40)
	case PrefHybrid:
		return prefetch.NewHybrid(cfg.StreamEntries, 512)
	case PrefCustom:
		return cfg.Custom
	default:
		return nil
	}
}

// addClient registers a completion-event consumer, returning its id.
func (h *hierarchy) addClient(c memClient) int32 {
	h.clients = append(h.clients, c)
	return int32(len(h.clients) - 1)
}

// attach builds a CPU wired to this hierarchy as a new client. The client
// id is bound into the per-CPU access/fetch closures here, once at setup —
// the hot path passes only scalars.
func (h *hierarchy) attach(cfg *Config, src cpu.Source) *cpu.CPU {
	id := int32(len(h.clients))
	h.clients = append(h.clients, nil)
	c := cpu.New(cfg.CPU, src, func(addr, pc uint64, store bool, robIdx int32, seq uint64) {
		h.Access(id, addr, pc, store, robIdx, seq)
	})
	if cfg.ModelIFetch {
		c.SetFetch(func(pc uint64) bool { return h.Fetch(id, pc) })
	}
	if h.attr != nil {
		c.SetAttribution(&h.attr.cpu, h.backpressured)
	}
	h.clients[id] = c
	return c
}

// runEvent dispatches one fired event (the wheel's run hook).
func (h *hierarchy) runEvent(ev event) {
	switch ev.kind {
	case evLoadDone:
		h.clients[ev.client].CompleteLoad(ev.idx, ev.arg)
	case evFetchDone:
		h.clients[ev.client].CompleteFetch()
	case evFillL1:
		h.fillL1(ev.arg)
	}
}

// allocMiss returns a free l1Miss slab index, growing the slab only past
// missDepth.
func (h *hierarchy) allocMiss() int32 {
	if n := len(h.missFree); n > 0 {
		mi := h.missFree[n-1]
		h.missFree = h.missFree[:n-1]
		return mi
	}
	h.missSlab = append(h.missSlab, l1Miss{})
	return int32(len(h.missSlab) - 1)
}

// Tick advances the hierarchy one cycle, after the run loop has ticked
// the DRAM.
func (h *hierarchy) Tick(cycle uint64) {
	h.cyc = cycle
	h.wh.tick(cycle)
	h.retryPending()
	h.drainPrefetchQueue()
	if h.attr != nil {
		h.attrSampleCycles(1)
	}
}

// quiet reports whether a Tick would only advance the clock (and sample
// attribution) until the DRAM or the wheel next has work: nothing awaits
// replay, and the prefetch queue is empty or blocked — its head is not
// covered and the MSHR file or the DRAM's prefetch queue is full, so
// drainPrefetchQueue returns at once. A parked demand or writeback is
// never quiet: each failed retry counts (L2 accesses and misses, DRAM
// drops), so skipping one would have to replay it.
func (h *hierarchy) quiet() bool {
	if h.pendingDemand.len() > 0 || h.pendingWB.len() > 0 {
		return false
	}
	return h.prefQ.len() == 0 ||
		(h.mshr.Full() || !h.dram.CanEnqueue(mem.Prefetch)) && !h.covered(h.prefQ.peek())
}

// Access submits a memory access from the given client. Loads (robIdx >=
// 0) complete via the client's CompleteLoad once the data is available —
// never synchronously; stores pass robIdx < 0 and need no completion.
func (h *hierarchy) Access(client int32, addr, pc uint64, store bool, robIdx int32, seq uint64) {
	block := addr >> h.cfg.BlockShift
	h.ctr.L1Accesses++
	if b := h.l1.Access(block); b != nil {
		if store {
			b.Dirty = true
		}
		if robIdx >= 0 {
			h.wh.schedule(h.cfg.L1Latency, h.pool.alloc(evLoadDone, client, robIdx, seq))
		}
		return
	}
	h.ctr.L1Misses++
	waiter := nilEvent
	if robIdx >= 0 {
		waiter = h.pool.alloc(evLoadDone, client, robIdx, seq)
	}
	h.missL1(block, pc, false, store, waiter)
}

// Fetch asks for the instruction block containing pc on behalf of the
// given client: it returns true on an L1I hit; on a miss the block is
// requested through the unified L2 and the client's CompleteFetch fires
// when it arrives.
func (h *hierarchy) Fetch(client int32, pc uint64) bool {
	block := pc >> h.cfg.BlockShift
	h.ctr.IFetchBlocks++
	if h.l1i.Access(block) != nil {
		return true
	}
	h.ctr.IFetchL1Misses++
	h.missL1(block, 0, true, false, h.pool.alloc(evFetchDone, client, 0, 0))
	return false
}

// missL1 joins the outstanding L1 miss on block, or opens one and sends
// the block to the L2, and queues waiter (nilEvent for a store) on the
// requesting side: the L1I for a fetch, the L1D otherwise. A fetch that
// joins a data miss marks the block wanted by the L1I as well; a data
// access that joins a fetch-only miss does not mark it wanted by the L1D
// (TestHierarchyL1MissJoinAsymmetry pins this asymmetry).
func (h *hierarchy) missL1(block cache.Addr, pc uint64, fetch, store bool, waiter int32) {
	mi, joined := h.l1Misses.Get(block)
	if !joined {
		mi = h.allocMiss()
		h.missSlab[mi] = l1Miss{wantData: !fetch, waiters: [2]evList{newEvList(), newEvList()}}
	}
	m := &h.missSlab[mi]
	m.anyStore = m.anyStore || store
	m.wantFetch = m.wantFetch || fetch
	if waiter != nilEvent {
		side := 0
		if fetch {
			side = 1
		}
		m.waiters[side].push(h.pool, waiter)
	}
	if !joined {
		h.l1Misses.Put(block, mi)
		h.l2Demand(block, pc)
	}
}

// fillL1 completes an outstanding L1 miss: the block is inserted into the
// L1 and every merged requester's waiter node re-schedules onto the wheel
// (no copy — the nodes move from the waiter list into a bucket) to fire
// after the L1 latency.
func (h *hierarchy) fillL1(block cache.Addr) {
	mi, ok := h.l1Misses.Delete(block)
	if !ok {
		return
	}
	m := &h.missSlab[mi]
	if m.wantData {
		h.l1.Insert(block, cache.PosMRU, false, m.anyStore)
	}
	if m.wantFetch && h.l1i != nil {
		h.l1i.Insert(block, cache.PosMRU, false, false)
	}
	for side := range m.waiters {
		for id := m.waiters[side].take(); id != nilEvent; {
			next := h.pool.at(id).next
			h.wh.schedule(h.cfg.L1Latency, id)
			id = next
		}
	}
	h.missFree = append(h.missFree, mi)
}

// l2Demand performs (or re-attempts) a demand access at the L2. When
// structural resources are exhausted the access parks in pendingDemand and
// is replayed in order.
func (h *hierarchy) l2Demand(block cache.Addr, pc uint64) {
	if !h.tryL2Demand(block, pc) {
		h.pendingDemand.push(demandRetry{block: block, pc: pc})
	}
}

func (h *hierarchy) tryL2Demand(block cache.Addr, pc uint64) bool {
	h.pfEv = prefetch.Event{Block: block, PC: pc}
	switch {
	case h.lookupL2Hit(block):
		// handled: fill scheduled
	case h.lookupPrefCache(block):
		// handled: migrated from the prefetch cache
	default:
		if !h.l2Miss(block) {
			return false // resource stall: retry without training the prefetcher
		}
	}
	if h.pf != nil {
		h.pfOut = h.pf.Observe(&h.pfEv, h.pfOut[:0])
		for _, p := range h.pfOut {
			h.enqueuePrefetch(p)
		}
	}
	return true
}

// lookupL2Hit services a demand hit in the L2.
func (h *hierarchy) lookupL2Hit(block cache.Addr) bool {
	h.ctr.L2DemandAccesses++
	b := h.l2.Access(block)
	if b == nil {
		h.ctr.L2DemandAccesses-- // recounted on the path actually taken
		return false
	}
	h.ctr.L2DemandHits++
	if b.Pref {
		b.Pref = false
		h.pfEv.PrefHit = true
		h.prefUsed(block)
	}
	h.wh.schedule(h.cfg.L2Latency, h.pool.alloc(evFillL1, 0, 0, block))
	return true
}

// lookupPrefCache migrates a demand-hit block from the separate prefetch
// cache into the L2 (Section 5.7's prefetch-cache organization).
func (h *hierarchy) lookupPrefCache(block cache.Addr) bool {
	if h.pc == nil {
		return false
	}
	if _, ok := h.pc.Invalidate(block); !ok {
		return false
	}
	h.ctr.L2DemandAccesses++
	h.ctr.PrefCacheHits++
	h.prefUsed(block)
	h.l2.Insert(block, cache.PosMRU, false, false)
	h.wh.schedule(h.cfg.L2Latency, h.pool.alloc(evFillL1, 0, 0, block))
	return true
}

// prefUsed counts a demand's first use of a prefetched block.
func (h *hierarchy) prefUsed(block cache.Addr) {
	h.ctr.PrefUsed++
	h.fdp.OnPrefetchUsed()
	if h.attr != nil {
		h.attrPrefUsed(block)
	}
}

// l2Miss handles a demand L2 miss: merge into an in-flight request (late
// prefetch detection) or allocate an MSHR and go to memory. Returns false
// when MSHRs or the demand queue are exhausted.
//
// An MSHR entry needs no waiter list: same-block demands merge in the
// l1Misses table before reaching the L2, so the only continuation a fill
// can owe is a single fillL1 — recorded by the DemandMerged bit and
// scheduled by onFill.
func (h *hierarchy) l2Miss(block cache.Addr) bool {
	e := h.mshr.Lookup(block)
	if e == nil && (h.mshr.Full() || !h.dram.CanEnqueue(mem.Demand)) {
		return false
	}
	h.ctr.L2DemandAccesses++
	h.ctr.L2DemandMisses++
	h.ctr.DemandMisses++
	if h.fdp.OnDemandMiss(block) {
		h.ctr.PollutionHits++
	}
	h.pfEv.Miss = true
	if e != nil {
		if e.Pref {
			// Demand hit an in-flight prefetch: the prefetch is late.
			e.Pref = false
			h.ctr.PrefLate++
			h.ctr.PrefUsed++
			h.fdp.OnPrefetchLate()
			h.dram.Promote(block)
			if h.attr != nil {
				h.attrPrefLate(block)
			}
		}
		e.DemandMerged = true
		return true
	}
	e = h.mshr.Allocate(block, false, h.cyc)
	e.DemandMerged = true
	r := h.dram.Acquire()
	r.Block, r.Kind, r.Owner, r.Done = block, mem.Demand, h.coreID, h.onFillFn
	h.dram.Enqueue(r, h.cyc)
	return true
}

// enqueuePrefetch admits a prefetcher-generated block address into the
// Prefetch Request Queue. Requests for blocks that are already resident,
// in flight, or queued are filtered here so that a high-degree prefetcher
// re-covering its own window cannot crowd the far-ahead addresses out of
// the bounded queue.
func (h *hierarchy) enqueuePrefetch(block cache.Addr) {
	h.ctr.PrefIssued++
	if _, queued := h.prefQSet.Get(block); queued || h.covered(block) || h.prefQ.len() >= h.cfg.PrefQueueCap {
		h.ctr.PrefDropped++
		return
	}
	h.prefQ.push(block)
	h.prefQSet.Put(block, 0)
}

// drainPrefetchQueue moves prefetch requests from the Prefetch Request
// Queue into the memory system, filtering ones that are already resident
// or in flight. Prefetches enter the bus queue at the lowest priority.
func (h *hierarchy) drainPrefetchQueue() {
	for k := 0; k < h.cfg.PrefDrainPerTick && h.prefQ.len() > 0; k++ {
		block := h.prefQ.peek()
		if h.covered(block) {
			h.prefQ.pop()
			h.prefQSet.Delete(block)
			h.ctr.PrefDropped++
			continue
		}
		if h.mshr.Full() || !h.dram.CanEnqueue(mem.Prefetch) {
			return
		}
		h.prefQ.pop()
		h.prefQSet.Delete(block)
		h.mshr.Allocate(block, true, h.cyc)
		r := h.dram.Acquire()
		r.Block, r.Kind, r.Owner, r.WasPrefetch, r.Done = block, mem.Prefetch, h.coreID, true, h.onFillFn
		h.dram.Enqueue(r, h.cyc)
	}
}

// covered reports whether block is resident in the L2 or the prefetch
// cache, or in flight in an MSHR: a prefetch for it would be wasted.
func (h *hierarchy) covered(block cache.Addr) bool {
	return h.l2.Contains(block) || (h.pc != nil && h.pc.Contains(block)) || h.mshr.Lookup(block) != nil
}

// onFill receives a completed memory read: release the MSHR, insert the
// block (into the prefetch cache for prefetches when one is configured,
// otherwise into the L2 at the policy-selected stack position), and wake
// the merged demand — one evFillL1 a cycle later — when there is one.
func (h *hierarchy) onFill(r *mem.Request) {
	var stillPref, demandMerged bool
	if e := h.mshr.Release(r.Block); e != nil {
		stillPref = e.Pref
		demandMerged = e.DemandMerged
	}
	if h.attr != nil && r.WasPrefetch {
		h.attrPrefFilled(r.Block, stillPref)
	}
	pos := cache.PosMRU
	if stillPref {
		// The filter bit clears before the insert can set a victim's.
		h.ctr.PrefetchFilled++
		h.fdp.OnPrefetchFill(r.Block)
		if h.pc != nil {
			h.pc.Insert(r.Block, cache.PosMRU, true, false)
			return
		}
		pos = h.cfg.FDP.StaticInsertion
		if h.cfg.FDP.DynamicInsertion {
			pos = h.fdp.InsertionPos()
		}
	}
	h.l2.Insert(r.Block, pos, stillPref, false)
	if demandMerged {
		h.wh.schedule(1, h.pool.alloc(evFillL1, 0, 0, r.Block))
	}
}

// onL1Evict writes dirty L1 victims back into the L2, or straight to
// memory when the L2 no longer holds the block.
func (h *hierarchy) onL1Evict(ev cache.Evicted) {
	if !ev.Block.Dirty {
		return
	}
	if h.l2.SetDirty(ev.Block.Tag) {
		return
	}
	h.writeback(ev.Block.Tag)
}

// onL2Evict feeds FDP's pollution filter and interval counter and emits
// writeback traffic for dirty victims. A victim is "useful" (advancing the
// sampling interval) when a demand ever touched it; it arms the pollution
// filter only when it was demand-filled and displaced by a prefetch.
func (h *hierarchy) onL2Evict(ev cache.Evicted) {
	used := !ev.Block.Pref
	if used {
		h.ctr.UsefulEvicted++
	} else if h.attr != nil {
		h.attrPrefEvicted(ev.Block.Tag)
	}
	h.fdp.OnEviction(ev.Block.Tag, used, ev.Block.DemandFill, ev.ByPrefetch)
	if ev.Block.Dirty {
		h.writeback(ev.Block.Tag)
	}
}

// writeback sends block to memory, parking it in pendingWB when the
// writeback queue is full.
func (h *hierarchy) writeback(block cache.Addr) {
	if !h.enqueueWriteback(block) {
		h.pendingWB.push(block)
	}
}

// enqueueWriteback hands a writeback of block to the DRAM, reporting
// whether its queue took it.
func (h *hierarchy) enqueueWriteback(block cache.Addr) bool {
	r := h.dram.Acquire()
	r.Block, r.Kind, r.Owner = block, mem.Writeback, h.coreID
	return h.dram.Enqueue(r, h.cyc)
}

// onBusStart counts bus transactions at the moment a request wins the bus,
// which is when the paper counts a prefetch as "sent to memory".
func (h *hierarchy) onBusStart(r *mem.Request) {
	switch {
	case r.Kind == mem.Writeback:
		h.ctr.BusWritebacks++
	case r.WasPrefetch:
		h.ctr.BusPrefetches++
		h.ctr.PrefSent++
		h.fdp.OnPrefetchSent()
	default:
		h.ctr.BusReads++
	}
}

// retryPending replays structural-stall victims in arrival order.
func (h *hierarchy) retryPending() {
	for h.pendingWB.len() > 0 && h.enqueueWriteback(h.pendingWB.peek()) {
		h.pendingWB.pop()
	}
	for tries := 0; tries < 8 && h.pendingDemand.len() > 0; tries++ {
		d := h.pendingDemand.peek()
		if !h.tryL2Demand(d.block, d.pc) {
			break
		}
		h.pendingDemand.pop()
	}
}
