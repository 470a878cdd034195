package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"fdpsim/internal/sim"
)

// JSONL streams DecisionEvents as JSON Lines: one object per interval
// boundary, in arrival order, flushed on Close. Write errors are sticky —
// the first one stops further encoding and is reported by Close and Err,
// so a full disk surfaces once instead of per interval.
type JSONL struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
	n   int
}

// NewJSONL returns a JSONL sink over w. The caller owns w (Close flushes
// but does not close it).
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// TraceDecision implements sim.Tracer.
func (j *JSONL) TraceDecision(ev sim.DecisionEvent) {
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(ev); err != nil {
		j.err = fmt.Errorf("obs: jsonl encode: %w", err)
		return
	}
	j.n++
}

// Events returns how many events were written.
func (j *JSONL) Events() int { return j.n }

// Err returns the sticky write error, if any.
func (j *JSONL) Err() error { return j.err }

// Close flushes buffered output and returns the first error encountered.
func (j *JSONL) Close() error {
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("obs: jsonl flush: %w", err)
	}
	return j.err
}

// WriteJSONL renders an event slice, such as a decoded interval stream,
// in the same format the streaming JSONL sink produces.
func WriteJSONL(w io.Writer, events []sim.DecisionEvent) error {
	j := NewJSONL(w)
	for _, ev := range events {
		j.TraceDecision(ev)
	}
	return j.Close()
}

// ReadJSONL parses a JSONL decision trace back into events (fdptop
// -replay and the tree trainer read -trace-out files with it).
func ReadJSONL(r io.Reader) ([]sim.DecisionEvent, error) {
	var events []sim.DecisionEvent
	dec := json.NewDecoder(r)
	for {
		var ev sim.DecisionEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return events, fmt.Errorf("obs: jsonl event %d: %w", len(events)+1, err)
		}
		events = append(events, ev)
	}
}
