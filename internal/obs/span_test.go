package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"fdpsim/internal/obs"
)

// mkSpan builds a test span at a deterministic offset from a base time.
func mkSpan(trace, id, parent, name, actor, lane string, startMS, durMS int) obs.Span {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return obs.Span{
		TraceID: trace, SpanID: id, Parent: parent,
		Name: name, Actor: actor, Lane: lane,
		Start: base.Add(time.Duration(startMS) * time.Millisecond),
		End:   base.Add(time.Duration(startMS+durMS) * time.Millisecond),
	}
}

func TestSpanIDs(t *testing.T) {
	tr, sp := obs.NewTraceID(), obs.NewSpanID()
	if len(tr) != 32 || len(sp) != 16 {
		t.Fatalf("ID lengths = %d/%d, want 32/16 hex chars", len(tr), len(sp))
	}
	if tr == obs.NewTraceID() || sp == obs.NewSpanID() {
		t.Fatal("consecutive IDs collided")
	}
	for _, c := range tr + sp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			t.Fatalf("non-hex character %q in ID", c)
		}
	}
}

// TestWriteSpansChrome checks the exporter's document shape: valid JSON,
// one process lane per actor, one thread per (actor, lane), complete
// events carrying trace context, and instants for span events.
func TestWriteSpansChrome(t *testing.T) {
	spans := []obs.Span{
		mkSpan("trace1", "s1", "", "job", "worker-a", "default", 0, 100),
		mkSpan("trace1", "s2", "s1", "run", "worker-a", "default", 10, 80),
		mkSpan("trace1", "s3", "", "job", "worker-b", "alice", 5, 50),
	}
	spans[1].Events = []obs.SpanEvent{{
		Name: "lease-renew",
		Time: spans[1].Start.Add(20 * time.Millisecond),
	}}
	spans[1].Attrs = map[string]string{"fingerprint": "abc123"}

	var buf bytes.Buffer
	if err := obs.WriteSpansChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported document is not valid JSON: %v\n%s", err, buf.String())
	}

	var complete, instants, procs, threads int
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			args := ev["args"].(map[string]any)
			if args["trace_id"] != "trace1" {
				t.Fatalf("complete event without trace_id: %v", ev)
			}
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("complete event with bad dur: %v", ev)
			}
			pids[ev["pid"].(float64)] = true
		case "i":
			instants++
		case "M":
			switch ev["name"] {
			case "process_name":
				procs++
			case "thread_name":
				threads++
			}
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if instants != 1 {
		t.Fatalf("instant events = %d, want 1", instants)
	}
	if procs != 2 || len(pids) != 2 {
		t.Fatalf("process lanes = %d (pids %v), want one per worker (2)", procs, pids)
	}
	if threads != 2 {
		t.Fatalf("thread lanes = %d, want one per (actor, tenant) (2)", threads)
	}
	// The run span's attributes ride along as args.
	if !strings.Contains(buf.String(), `"fingerprint":"abc123"`) {
		t.Fatal("span attrs missing from exported args")
	}
	// The parent link survives.
	if !strings.Contains(buf.String(), `"parent_id":"s1"`) {
		t.Fatal("parent_id missing from exported args")
	}
}

// TestSpanDuration covers the torn-clock clamp.
func TestSpanDuration(t *testing.T) {
	s := mkSpan("t", "s", "", "op", "", "", 10, 5)
	if s.Duration() != 5*time.Millisecond {
		t.Fatalf("duration = %v", s.Duration())
	}
	s.End = s.Start.Add(-time.Second)
	if s.Duration() != 0 {
		t.Fatalf("negative duration not clamped: %v", s.Duration())
	}
}
