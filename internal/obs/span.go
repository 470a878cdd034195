package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Spans are the fabric-side counterpart of the simulator's DecisionEvent
// stream: where a decision trace explains what the FDP controller did
// inside one run, a span trace explains what the service fabric did
// around it — where a job waited, which worker claimed its fingerprint,
// how long the simulation and the store write took, and how a sweep's
// cells spread across a fleet. One trace ID threads a job's (or a whole
// sweep's) life across processes; spans parent onto each other to form
// the submit → queue → claim → run → store tree.
//
// Recording a span must never block or stall the caller: SpanBuffer
// evicts (and counts) once full.

// NewTraceID returns a 128-bit random trace identifier (32 hex chars).
func NewTraceID() string { return randomHex(16) }

// NewSpanID returns a 64-bit random span identifier (16 hex chars).
func NewSpanID() string { return randomHex(8) }

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is a broken platform; IDs only need
		// uniqueness for correlation, so degrade to a counter.
		return fallbackID(n)
	}
	return hex.EncodeToString(b)
}

var fallbackSeq struct {
	mu sync.Mutex
	n  uint64
}

// fallbackID produces a process-unique (not globally unique) identifier
// when the system entropy source is unavailable.
func fallbackID(n int) string {
	fallbackSeq.mu.Lock()
	fallbackSeq.n++
	v := fallbackSeq.n
	fallbackSeq.mu.Unlock()
	b := make([]byte, n)
	for i := len(b) - 1; i >= 0 && v > 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return hex.EncodeToString(b)
}

// SpanEvent is one timestamped point inside a span — a lease renewal, a
// claim backoff wait, a steal.
type SpanEvent struct {
	Name  string            `json:"name"`
	Time  time.Time         `json:"time"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one completed operation in a fabric trace. Spans are recorded
// whole (at end time), not started/finished through a handle: every
// producer in the service knows its operation's boundaries, and a value
// type keeps recording allocation-cheap and lock-scoped.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent_id,omitempty"`
	// Name is the operation: "job", "queue", "claim", "run", "store", …
	Name string `json:"name"`
	// Actor is the process that performed the operation (the fleet worker
	// name, or a standalone daemon's identity). One Perfetto lane per actor.
	Actor string `json:"actor,omitempty"`
	// Lane sub-divides an actor's track — the tenant the work ran under.
	Lane  string            `json:"lane,omitempty"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end"`
	Attrs map[string]string `json:"attrs,omitempty"`
	// Events are points inside the span (lease renewals, claim waits).
	Events []SpanEvent `json:"events,omitempty"`
}

// Duration returns the span's length (zero for a torn span whose end
// precedes its start — clock steps between processes).
func (s Span) Duration() time.Duration {
	if s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// SpanBuffer is a bounded in-memory span recorder: the service's
// flight-recorder backing store and the default sink in tests. Recording
// never blocks beyond a brief mutex; once Limit spans are held, the
// OLDEST span is evicted (ring semantics) and counted in Dropped, so the
// buffer always holds the most recent window — what a flight recorder
// wants after an incident.
type SpanBuffer struct {
	// Limit caps retained spans; 0 means 4096. Set before first use.
	Limit int

	mu      sync.Mutex
	ring    []Span
	start   int // index of the oldest span
	n       int // spans currently held
	dropped uint64
}

const defaultSpanBufferLimit = 4096

// RecordSpan adds one completed span. Spans arrive at completion time, so
// a child ("queue") lands before its parent ("job").
func (b *SpanBuffer) RecordSpan(s Span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	limit := b.Limit
	if limit <= 0 {
		limit = defaultSpanBufferLimit
	}
	if b.ring == nil {
		b.ring = make([]Span, limit)
	}
	if b.n == len(b.ring) {
		// Overwrite the oldest: the recorder keeps the trailing window.
		b.ring[b.start] = s
		b.start = (b.start + 1) % len(b.ring)
		b.dropped++
		return
	}
	b.ring[(b.start+b.n)%len(b.ring)] = s
	b.n++
}

// Spans returns the held spans, oldest first.
func (b *SpanBuffer) Spans() []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Span, b.n)
	for i := 0; i < b.n; i++ {
		out[i] = b.ring[(b.start+i)%len(b.ring)]
	}
	return out
}

// Dropped reports how many spans the ring evicted to admit newer ones.
func (b *SpanBuffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Len reports how many spans the buffer currently holds.
func (b *SpanBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}
