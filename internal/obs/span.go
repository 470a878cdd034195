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
