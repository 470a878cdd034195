package sim

// The event engine replaces the seed engine's closure-based continuation
// passing: instead of heap-allocating a `func()` per load, per fill and
// per wheel slot, every deferred action is a 24-byte event struct drawn
// from a free-list pool and threaded through intrusive linked lists (the
// timing wheel's buckets, the L1 miss table's waiter lists). Events are
// addressed by pool index, never by pointer, so the pool's backing slab
// can grow without invalidating anything. See DESIGN.md, "The event
// engine".

// evKind tags what an event does when it fires.
type evKind uint8

const (
	// evLoadDone resumes a client CPU's load: CompleteLoad(idx, arg).
	evLoadDone evKind = iota + 1
	// evFetchDone unblocks a client CPU's instruction fetch.
	evFetchDone
	// evFillL1 completes an outstanding L1 miss for block `arg`.
	evFillL1
)

// nilEvent is the null pool index (list terminator, empty bucket).
const nilEvent = int32(-1)

// event is one pooled continuation. kind selects the action; client/idx/
// arg are its packed operands (arg holds the load sequence number for
// evLoadDone and the block address for evFillL1).
type event struct {
	next   int32 // intrusive list link (wheel bucket or waiter list)
	kind   evKind
	client int32
	idx    int32
	arg    uint64
}

// eventPool is a slab allocator for events with a LIFO free list. alloc
// may grow the slab, so callers must not hold *event pointers across an
// alloc; all long-lived references are pool indices.
type eventPool struct {
	nodes []event
	free  []int32
}

func newEventPool(capHint int) *eventPool {
	if capHint < 64 {
		capHint = 64
	}
	return &eventPool{
		nodes: make([]event, 0, capHint),
		free:  make([]int32, 0, capHint),
	}
}

// alloc returns the index of a fresh event node.
func (p *eventPool) alloc(kind evKind, client, idx int32, arg uint64) int32 {
	var id int32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = int32(len(p.nodes))
		p.nodes = append(p.nodes, event{})
	}
	p.nodes[id] = event{next: nilEvent, kind: kind, client: client, idx: idx, arg: arg}
	return id
}

// release returns a node to the free list.
func (p *eventPool) release(id int32) {
	p.free = append(p.free, id)
}

// at returns the node for an index; the pointer is invalidated by the next
// alloc and must not be retained.
func (p *eventPool) at(id int32) *event { return &p.nodes[id] }

// evList is an intrusive FIFO list of pooled events (a wheel bucket or a
// miss table's waiter list). The zero value is not ready; use newEvList.
type evList struct {
	head, tail int32
}

func newEvList() evList { return evList{head: nilEvent, tail: nilEvent} }

// push appends a node to the tail, preserving FIFO dispatch order.
func (l *evList) push(p *eventPool, id int32) {
	p.nodes[id].next = nilEvent
	if l.tail == nilEvent {
		l.head = id
	} else {
		p.nodes[l.tail].next = id
	}
	l.tail = id
}

// take detaches and returns the whole chain's head, emptying the list.
func (l *evList) take() int32 {
	id := l.head
	l.head, l.tail = nilEvent, nilEvent
	return id
}
